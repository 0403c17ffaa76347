package sched

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/interference"
)

// The pairing memo outlives a pass only while the co-run model and the share
// configuration it was computed under stay the same. One Context planned in
// turn by policies with different gates, and then under another model, must
// plan what a fresh Context plans each time.
func TestMemoDroppedWhenItsInputsChange(t *testing.T) {
	strict := DefaultShareConfig()
	strict.MinComplementarity = 0.75
	floor := DefaultShareConfig()
	floor.MinEstimatedRate = 0.8
	measured := interference.Default()
	if err := measured.SetMeasured([]interference.MeasuredPair{
		{A: "minife", B: "minimd", RateA: 0.31, RateB: 0.33},
		{A: "snap", B: "gtc", RateA: 0.42, RateB: 0.97},
	}); err != nil {
		t.Fatal(err)
	}
	type step struct {
		cfg   ShareConfig
		inter *interference.Model
	}
	steps := []step{
		{DefaultShareConfig(), nil}, {strict, nil}, {DefaultShareConfig(), nil},
		{floor, nil}, {floor, measured}, {DefaultShareConfig(), measured}, {DefaultShareConfig(), nil},
	}
	differ := 0
	f := func(seed []byte) bool {
		reused := buildRoomyState(t, seed)
		var prev string
		for i, s := range steps {
			fresh := buildRoomyState(t, seed)
			if s.inter != nil {
				reused.Inter, fresh.Inter = s.inter, s.inter
			} else {
				reused.Inter = fresh.Inter
			}
			pol := ShareBackfill{Config: s.cfg}
			got, want := decisionSignature(pol.Schedule(reused)), decisionSignature(pol.Schedule(fresh))
			if got != want {
				t.Logf("step %d: reused context planned\n%s, fresh context\n%s", i, got, want)
				return false
			}
			if i > 0 && got != prev {
				differ++
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if differ == 0 {
		t.Fatal("no configuration change ever changed a plan; the test cannot see a stale memo")
	}
}

// Two applications that share a name but not a stress vector or a memory
// footprint are different applications to the memo.
func TestInternKeepsSameNameApplicationsApart(t *testing.T) {
	var tbl appTable
	a := app.Synthetic("x", app.StressVector{0.9, 0.1, 0.1, 0.1}, 100, 1000)
	b := app.Synthetic("x", app.StressVector{0.1, 0.9, 0.1, 0.1}, 100, 1000)
	c := a
	c.MemPerNodeMB++
	other := app.Synthetic("y", a.Stress, 100, 1000)
	ids := []int32{tbl.intern(&a), tbl.intern(&b), tbl.intern(&c), tbl.intern(&other)}
	for i := range ids {
		for k := range ids[:i] {
			if ids[i] == ids[k] {
				t.Fatalf("applications %d and %d share id %d", k, i, ids[i])
			}
		}
	}
	again := []int32{tbl.intern(&a), tbl.intern(&b), tbl.intern(&c), tbl.intern(&other)}
	if !reflect.DeepEqual(ids, again) {
		t.Fatalf("interning is not stable: %v then %v", ids, again)
	}
}
