package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// BENCHMARK.json at the repository root is the one list of workloads and
// metric names. The command reads it at start-up instead of keeping a second
// copy in Go: every name it measures must be declared there, and every name
// declared there is printed on every run (the driver's contract), so the two
// cannot drift.

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

// findUp looks for name in dir and then in its parents, so the command works
// from the repository root (the driver), from benchmark/ (go run, go test)
// and from a test's temporary directory below it.
func findUp(dir, name string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s not found in the working directory or above it", name)
		}
		dir = parent
	}
}

func loadManifest() (*manifest, string, error) {
	path, err := findUp(".", "BENCHMARK.json")
	if err != nil {
		return nil, "", err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return &m, filepath.Dir(path), nil
}

func (m *manifest) workload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
