package report

import (
	"fmt"
	"strings"
)

// Span is one job's occupancy of one node over a time interval, the input
// to the Gantt renderer.
type Span struct {
	// Node is the node row the span paints.
	Node int
	// Start and End bound the interval in seconds.
	Start, End float64
	// Label identifies the job; the renderer cycles it through A–Z/a–z.
	Label int
}

// Gantt renders node occupancy over time as ASCII art: one row per node,
// one column per time bucket. A cell shows the job's letter when one job
// holds the node, '*' when two or more share it, and '·' when idle.
//
//	node  0 AAAAAAAABB******··
//	node  1 AAAAAAAABB******··
//
// nodes fixes the row count; width the column count; [t0, t1) the rendered
// window (t1 ≤ t0 renders the spans' full extent).
func Gantt(spans []Span, nodes, width int, t0, t1 float64) string {
	if nodes <= 0 || width <= 0 {
		return ""
	}
	if t1 <= t0 {
		t0 = 0
		for _, s := range spans {
			if s.End > t1 {
				t1 = s.End
			}
		}
		if t1 <= t0 {
			t1 = t0 + 1
		}
	}
	bucket := (t1 - t0) / float64(width)

	// occupancy[node][col]: 0 = idle, -1 = shared, else label+1.
	occ := make([][]int, nodes)
	for i := range occ {
		occ[i] = make([]int, width)
	}
	for _, s := range spans {
		if s.Node < 0 || s.Node >= nodes || s.End <= s.Start {
			continue
		}
		lo := int((s.Start - t0) / bucket)
		hi := int((s.End - t0) / bucket)
		if lo < 0 {
			lo = 0
		}
		if hi >= width {
			hi = width - 1
		}
		for c := lo; c <= hi; c++ {
			// Paint by bucket midpoint membership so zero-width touches
			// do not smear.
			mid := t0 + (float64(c)+0.5)*bucket
			if mid < s.Start || mid >= s.End {
				continue
			}
			switch occ[s.Node][c] {
			case 0:
				occ[s.Node][c] = s.Label + 1
			default:
				occ[s.Node][c] = -1
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "time %s → %s, %c = one job, * = shared, · = idle\n",
		secs(t0), secs(t1), 'A')
	for n := 0; n < nodes; n++ {
		fmt.Fprintf(&b, "node %3d ", n)
		for c := 0; c < width; c++ {
			b.WriteRune(cellRune(occ[n][c]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func cellRune(v int) rune {
	switch {
	case v == 0:
		return '·'
	case v == -1:
		return '*'
	default:
		letters := "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
		return rune(letters[(v-1)%len(letters)])
	}
}

func secs(v float64) string {
	switch {
	case v >= 86400:
		return fmt.Sprintf("%.1fd", v/86400)
	case v >= 3600:
		return fmt.Sprintf("%.1fh", v/3600)
	case v >= 60:
		return fmt.Sprintf("%.1fm", v/60)
	default:
		return fmt.Sprintf("%.0fs", v)
	}
}
