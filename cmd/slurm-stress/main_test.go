package main

import "testing"

// Both subcommands, in-process at toy size: the scenario each stages must
// pass its own invariants (run returns them as its error).

func TestSoak(t *testing.T) {
	if err := runSoak([]string{"-clients", "4", "-submits", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestFailover(t *testing.T) {
	if err := runFailover([]string{"-clients", "2", "-submits", "2", "-lease", "250ms"}); err != nil {
		t.Fatal(err)
	}
}
