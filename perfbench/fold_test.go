package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := FoldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

	// Each sample goes to its innermost repository module, even under
	// runtime frames (the mallocgc sample belongs to mpisim) and below a
	// nested package path (sched/internalish belongs to sched).
	want := map[string]float64{"netsim": 0.01, "mpisim": 0.5, "sim": 0.02, "sched": 0.05}
	if len(got.Modules) != len(want) {
		t.Errorf("modules = %v, want %v", got.Modules, want)
	}
	for m, v := range want {
		if !near(got.Modules[m], v) {
			t.Errorf("%s = %g s, want %g s", m, got.Modules[m], v)
		}
	}
	// Background mark workers and mark assists outside the repository go
	// to GC; the scheduler idling and the benchmark's own hashing go to
	// other.
	if !near(got.GC, 0.33) {
		t.Errorf("GC = %g s, want 0.33 s", got.GC)
	}
	if !near(got.Other, 0.28) {
		t.Errorf("Other = %g s, want 0.28 s", got.Other)
	}
	// The buckets add up to the profile total the header reports.
	sum := got.GC + got.Other
	for _, v := range got.Modules {
		sum += v
	}
	if !near(got.Total, 1.19) || !near(sum, got.Total) {
		t.Errorf("total = %g s, buckets sum to %g s, want both 1.19 s", got.Total, sum)
	}
}

func TestFoldTracesRejectsMalformedValue(t *testing.T) {
	in := "-----------+------\n   tenms   runtime.futex\n"
	if _, err := FoldTraces(strings.NewReader(in)); err == nil {
		t.Fatal("malformed sample value accepted")
	}
}
