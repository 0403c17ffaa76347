// Package report renders experiment output: aligned ASCII tables for the
// terminal and CSV for plotting, one Table per paper table or figure.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid with column headers and optional footnotes.
type Table struct {
	// Title heads the rendered output, e.g. "F1 computational efficiency".
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows hold the data cells; ragged rows are padded when rendered.
	Rows [][]string
	// Notes are printed under the table, one per line.
	Notes []string
}

// New returns a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Columns)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Columns)
	for _, r := range t.Rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	rule := make([]string, cols)
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (header row first; notes become
// '#'-prefixed trailing comment rows).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{"# " + n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the ASCII form.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b) // strings.Builder writes cannot fail
	return b.String()
}

// F formats a float with the given decimal places.
func F(v float64, places int) string {
	return fmt.Sprintf("%.*f", places, v)
}

// Pct formats a fraction as a signed percentage, e.g. 0.19 → "+19.0%".
func Pct(v float64) string {
	return fmt.Sprintf("%+.1f%%", v*100)
}

// Ns formats nanoseconds with a readable unit.
func Ns(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
