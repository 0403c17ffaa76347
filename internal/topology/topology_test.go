package topology

import (
	"testing"
	"testing/quick"
)

func TestDefault(t *testing.T) {
	topo := Default(32)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Groups != 4 || topo.NodesPerGroup != 8 {
		t.Fatalf("Default(32) = %+v", topo)
	}
	// Non-multiples pad the last group.
	topo = Default(10)
	if topo.Groups != 2 {
		t.Fatalf("Default(10) groups = %d", topo.Groups)
	}
	if Default(1).Groups != 1 {
		t.Fatal("Default(1) malformed")
	}
}

func TestValidate(t *testing.T) {
	bad := []Topology{
		{Groups: 0, NodesPerGroup: 8},
		{Groups: 4, NodesPerGroup: 0},
		{Groups: 4, NodesPerGroup: 8, UplinkPenalty: -1},
	}
	for i, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("bad topology %d accepted", i)
		}
	}
}

func TestGroupOf(t *testing.T) {
	topo := Topology{Groups: 4, NodesPerGroup: 8}
	cases := map[int]int{0: 0, 7: 0, 8: 1, 31: 3, 35: 3 /* padded clamp */}
	for ni, want := range cases {
		if got := topo.GroupOf(ni); got != want {
			t.Errorf("GroupOf(%d) = %d, want %d", ni, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GroupOf(-1) did not panic")
		}
	}()
	topo.GroupOf(-1)
}

func TestSpread(t *testing.T) {
	topo := Topology{Groups: 4, NodesPerGroup: 8}
	cases := []struct {
		nodes []int
		want  int
	}{
		{nil, 0},
		{[]int{0, 1, 2}, 1},
		{[]int{0, 8}, 2},
		{[]int{0, 8, 16, 24}, 4},
		{[]int{7, 7, 7}, 1},
	}
	for _, c := range cases {
		if got := topo.Spread(c.nodes); got != c.want {
			t.Errorf("Spread(%v) = %d, want %d", c.nodes, got, c.want)
		}
	}
}

func TestNetworkFactor(t *testing.T) {
	topo := Topology{Groups: 4, NodesPerGroup: 8, UplinkPenalty: 0.6}
	if got := topo.NetworkFactor(1); got != 1 {
		t.Fatalf("factor(1) = %g", got)
	}
	if got := topo.NetworkFactor(4); got != 1.6 {
		t.Fatalf("factor(4) = %g", got)
	}
	mid := topo.NetworkFactor(2)
	if mid <= 1 || mid >= 1.6 {
		t.Fatalf("factor(2) = %g not between extremes", mid)
	}
	// Clamped above Groups; identity for 1-group machines.
	if topo.NetworkFactor(99) != 1.6 {
		t.Fatal("spread not clamped")
	}
	one := Topology{Groups: 1, NodesPerGroup: 8, UplinkPenalty: 0.6}
	if one.NetworkFactor(5) != 1 {
		t.Fatal("single-group machine has uplink penalty")
	}
}

func TestCompactOrder(t *testing.T) {
	topo := Topology{Groups: 4, NodesPerGroup: 2}
	// Groups: {0,1} {2,3} {4,5} {6,7}. Candidates: group 1 full, group 0
	// half, group 3 half → group 1's nodes first.
	in := []int{6, 2, 0, 3}
	out := new(Compactor).Order(topo, in)
	if out[0] != 2 || out[1] != 3 {
		t.Fatalf("Compactor.Order = %v, want group 1 (nodes 2,3) first", out)
	}
	if len(out) != 4 {
		t.Fatalf("Compactor.Order dropped nodes: %v", out)
	}
	// Tie between groups 0 and 3 breaks by group index.
	if out[2] != 0 || out[3] != 6 {
		t.Fatalf("tie-break wrong: %v", out)
	}
}

// Property: Compactor.Order is a permutation and never splits a group's nodes
// apart in the output.
func TestProperty_CompactOrderPermutation(t *testing.T) {
	topo := Topology{Groups: 8, NodesPerGroup: 4}
	f := func(raw []uint8) bool {
		seen := map[int]bool{}
		var in []int
		for _, r := range raw {
			ni := int(r) % (topo.Groups * topo.NodesPerGroup)
			if !seen[ni] {
				seen[ni] = true
				in = append(in, ni)
			}
		}
		out := new(Compactor).Order(topo, in)
		if len(out) != len(in) {
			return false
		}
		got := map[int]bool{}
		for _, ni := range out {
			got[ni] = true
		}
		for ni := range seen {
			if !got[ni] {
				return false
			}
		}
		// Group contiguity: once we leave a group we never return.
		visited := map[int]bool{}
		last := -1
		for _, ni := range out {
			g := topo.GroupOf(ni)
			if g != last {
				if visited[g] {
					return false
				}
				visited[g] = true
				last = g
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
