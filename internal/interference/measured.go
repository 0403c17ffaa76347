package interference

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/app"
)

// Load is one co-located job's contribution to a node: its application name
// (for measured-pair lookup) and its effective stress vector (possibly
// adjusted for placement spread by the simulator).
type Load struct {
	App    string
	Stress app.StressVector
}

// MeasuredPair is an empirically measured co-run result: the progress rates
// of apps A and B when co-located on one node via SMT. Order matters for
// the rates; the table stores both directions.
type MeasuredPair struct {
	A, B         string
	RateA, RateB float64
}

// Validate checks a measurement.
func (p MeasuredPair) Validate() error {
	if p.A == "" || p.B == "" {
		return fmt.Errorf("interference: measured pair with empty app name (%+v)", p)
	}
	if p.RateA <= 0 || p.RateA > 1 || p.RateB <= 0 || p.RateB > 1 {
		return fmt.Errorf("interference: measured rates (%g, %g) outside (0,1]", p.RateA, p.RateB)
	}
	return nil
}

type pairKey struct{ a, b string }

// SetMeasured installs empirical pair measurements. When a two-job
// co-location matches a measured pair by application name, the measured
// rates replace the analytic model (measurement subsumes whatever effects it
// was taken under); co-locations of three or more jobs, or pairs without a
// measurement, fall back to the analytic model. Calling SetMeasured again
// replaces the table; nil clears it.
func (m *Model) SetMeasured(pairs []MeasuredPair) error {
	if pairs == nil {
		m.measured = nil
		return nil
	}
	table := make(map[pairKey][2]float64, 2*len(pairs))
	for _, p := range pairs {
		if err := p.Validate(); err != nil {
			return err
		}
		table[pairKey{p.A, p.B}] = [2]float64{p.RateA, p.RateB}
		table[pairKey{p.B, p.A}] = [2]float64{p.RateB, p.RateA}
	}
	m.measured = table
	return nil
}

// NamedRates returns per-job progress rates like NodeRates, but consults the
// measured-pair table first for two-job co-locations.
func (m *Model) NamedRates(loads []Load) []float64 {
	if len(loads) == 0 {
		return nil
	}
	return m.AppendNamedRates(make([]float64, 0, len(loads)), loads)
}

// AppendNamedRates appends what NamedRates returns to dst and allocates
// nothing when dst has room: the simulation engine re-rates every resident of
// every node a start or a completion touches.
func (m *Model) AppendNamedRates(dst []float64, loads []Load) []float64 {
	if len(loads) == 1 {
		return append(dst, 1)
	}
	if len(loads) == 2 && m.measured != nil {
		if r, ok := m.measured[pairKey{loads[0].App, loads[1].App}]; ok {
			return append(dst, r[0], r[1])
		}
	}
	var demand [app.NumResources]float64
	for _, l := range loads {
		addDemand(&demand, l.Stress)
	}
	ratio := m.ratios(&demand)
	for _, l := range loads {
		dst = append(dst, m.rateUnder(l.Stress, &ratio))
	}
	return dst
}

// ParseCoRunCSV reads measured pairs from CSV rows of the form
//
//	appA,appB,rateA,rateB
//
// A '#'-prefixed first field marks a comment row; a header row with
// non-numeric rates is skipped.
func ParseCoRunCSV(r io.Reader) ([]MeasuredPair, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.Comment = '#'
	var out []MeasuredPair
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("interference: corun csv: %w", err)
		}
		line++
		if len(rec) != 4 {
			return nil, fmt.Errorf("interference: corun csv row %d has %d fields, want 4", line, len(rec))
		}
		ra, errA := strconv.ParseFloat(rec[2], 64)
		rb, errB := strconv.ParseFloat(rec[3], 64)
		if errA != nil || errB != nil {
			if line == 1 {
				continue // header row
			}
			return nil, fmt.Errorf("interference: corun csv row %d: non-numeric rates %q, %q",
				line, rec[2], rec[3])
		}
		p := MeasuredPair{A: rec[0], B: rec[1], RateA: ra, RateB: rb}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("interference: corun csv row %d: %w", line, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// ExportCoRunCSV writes the analytic model's pairwise rates for the given
// applications in ParseCoRunCSV's format — the template a site fills in with
// real measurements.
func (m *Model) ExportCoRunCSV(w io.Writer, models []app.Model) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"appA", "appB", "rateA", "rateB"}); err != nil {
		return err
	}
	sorted := append([]app.Model(nil), models...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for i, a := range sorted {
		for _, b := range sorted[i:] {
			ra, rb := m.PairRates(a.Stress, b.Stress)
			if err := cw.Write([]string{
				a.Name, b.Name,
				strconv.FormatFloat(ra, 'f', 4, 64),
				strconv.FormatFloat(rb, 'f', 4, 64),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
