package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sweepgrid"
)

func TestSplitListRejectsEmptyEntries(t *testing.T) {
	for _, bad := range []string{"", ",", "a,", ",a", "a,,b", " , ", "a, ,b"} {
		if out, err := splitList("x", bad); err == nil {
			t.Errorf("splitList(%q) = %v, want error", bad, out)
		}
	}
}

// validLoads and validPolicies parse one list flag and check the grid it
// gives, as run does, with every other flag valid.
func validLoads(loads string) ([]float64, error) {
	l, err := parseLoads(loads)
	if err != nil {
		return nil, err
	}
	s := validGrid()
	s.Loads = l
	return l, s.Validate()
}

func validPolicies(policies string) ([]string, error) {
	p, err := splitList("policies", policies)
	if err != nil {
		return nil, err
	}
	s := validGrid()
	s.Policies = p
	return p, s.Validate()
}

func validGrid() sweepgrid.Spec {
	return sweepgrid.Spec{Policies: []string{"easy"}, Loads: []float64{1}, Seeds: 1, Nodes: 8, Jobs: 10, Mix: "trinity", Scale: 0.05}
}

func TestParsePoliciesKnowsRegistry(t *testing.T) {
	names, err := validPolicies("fcfs,firstfit,easy,conservative,sharefirstfit,sharebackfill,shareconservative")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 7 {
		t.Fatalf("got %d policies", len(names))
	}
	if _, err := validPolicies("easy,slurm"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestParseLoadsValues(t *testing.T) {
	loads, err := validLoads("0.6, 0.9 ,1.2,1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.6, 0.9, 1.2, 1.5}
	for i, v := range want {
		if loads[i] != v {
			t.Fatalf("loads = %v, want %v", loads, want)
		}
	}
	for _, bad := range []string{"0", "-1", "NaN", "+Inf", "-Inf", "1e300", "0x", "1.0,oops"} {
		if out, err := validLoads(bad); err == nil {
			t.Errorf("parse(-loads %q) = %v, want error", bad, out)
		}
	}
}

// FuzzParseLoads asserts that parsing and checking never panic on a -loads value and
// that every accepted load list round-trips to positive finite values with
// no empty entries.
func FuzzParseLoads(f *testing.F) {
	for _, seed := range []string{"0.6,0.9,1.2,1.5", "1", "", ",", "1,,2", " 2 ", "NaN", "1e9", "-3", "0.5,", "1e308"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		loads, err := validLoads(s)
		if err != nil {
			return
		}
		if len(loads) == 0 {
			t.Fatalf("parse(-loads %q) accepted an empty list", s)
		}
		if len(loads) != strings.Count(s, ",")+1 {
			t.Fatalf("parse(-loads %q) = %v: entry count mismatch", s, loads)
		}
		for _, v := range loads {
			if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("parse(-loads %q) accepted non-positive/non-finite %v", s, v)
			}
		}
	})
}

// FuzzParsePolicies asserts that parsing and checking never panic on a -policies value
// and only ever accepts trimmed, non-empty registry names.
func FuzzParsePolicies(f *testing.F) {
	for _, seed := range []string{"easy", "easy,sharebackfill", "", ",", "easy,,easy", " fcfs ", "EASY"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		names, err := validPolicies(s)
		if err != nil {
			return
		}
		if len(names) == 0 {
			t.Fatalf("parse(-policies %q) accepted an empty list", s)
		}
		for _, n := range names {
			if n == "" || n != strings.TrimSpace(n) {
				t.Fatalf("parse(-policies %q) kept untrimmed/empty entry %q", s, n)
			}
		}
	})
}
