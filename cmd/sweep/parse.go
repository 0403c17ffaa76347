package main

import (
	"fmt"
	"strconv"
	"strings"
)

// splitList splits a comma-separated flag value into trimmed entries,
// rejecting empties up front (leading/trailing/duplicate commas or an empty
// value) so a malformed flag fails before any grid cell runs instead of
// fataling mid-grid.
func splitList(flagName, s string) ([]string, error) {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("-%s %q: empty entry (stray comma?)", flagName, s)
		}
		out = append(out, p)
	}
	return out, nil
}

// parseLoads parses the -loads flag: a non-empty comma list of numbers. Their
// range is the workload's to check.
func parseLoads(s string) ([]float64, error) {
	entries, err := splitList("loads", s)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(entries))
	for _, e := range entries {
		v, err := strconv.ParseFloat(e, 64)
		if err != nil {
			return nil, fmt.Errorf("-loads: bad load %q: %w", e, err)
		}
		out = append(out, v)
	}
	return out, nil
}
