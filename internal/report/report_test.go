package report

import (
	"bytes"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := New("T0 demo", "policy", "CE", "SE")
	t.Add("easy", "1.000", "0.750")
	t.Add("sharebackfill", "1.190", "0.939")
	t.AddNote("seed 42")
	return t
}

func TestRenderASCII(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"T0 demo", "policy", "sharebackfill", "1.190", "seed 42", "---"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	// Columns must be aligned: both data rows' second column starts at the
	// same offset.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var dataLines []string
	for _, l := range lines {
		if strings.HasPrefix(l, "easy") || strings.HasPrefix(l, "sharebackfill") {
			dataLines = append(dataLines, l)
		}
	}
	if len(dataLines) != 2 {
		t.Fatalf("found %d data lines", len(dataLines))
	}
	if strings.Index(dataLines[0], "1.000") != strings.Index(dataLines[1], "1.190") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestRenderCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if lines[0] != "policy,CE,SE" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[3], "# ") {
		t.Fatalf("note row = %q", lines[3])
	}
}

func TestRaggedRowsPad(t *testing.T) {
	tbl := New("ragged", "a", "b")
	tbl.Add("1", "2", "3") // extra cell
	tbl.Add("x")           // missing cell
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3") {
		t.Fatal("extra cell dropped")
	}
}

func TestStringEqualsRender(t *testing.T) {
	var buf bytes.Buffer
	tbl := sampleTable()
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if tbl.String() != buf.String() {
		t.Fatal("String() differs from Render output")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Errorf("F = %q", F(1.23456, 2))
	}
	if Pct(0.19) != "+19.0%" {
		t.Errorf("Pct = %q", Pct(0.19))
	}
	if Pct(-0.052) != "-5.2%" {
		t.Errorf("Pct = %q", Pct(-0.052))
	}
	cases := map[float64]string{
		500:   "500ns",
		1500:  "1.50µs",
		2.5e6: "2.50ms",
		3.2e9: "3.20s",
	}
	for ns, want := range cases {
		if got := Ns(ns); got != want {
			t.Errorf("Ns(%g) = %q, want %q", ns, got, want)
		}
	}
}
