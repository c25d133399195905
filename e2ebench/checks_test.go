package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"onocsim"
)

// smallStudy is a 16-core optical stencil study, cheap enough for a test.
func smallStudy(t *testing.T, refs references) *passResult {
	t.Helper()
	cfg := studyConfig("stencil", 1, onocsim.Optical)
	cfg.System.Cores = 16
	p := newPass(cfg.Seed)
	runStudies(newTracer(false, time.Now()), []onocsim.Config{cfg}, onocsim.Optical, refs, "test", p)
	return p
}

// TestWrongReferenceRaisesFailedRatio is the self-test of the output checks:
// the recorded outputs pass, and a reference value off by one fails the
// operation that produced it.
func TestWrongReferenceRaisesFailedRatio(t *testing.T) {
	clean := smallStudy(t, references{})
	if clean.Tally.Failed != 0 || clean.Tally.Attempted == 0 {
		t.Fatalf("unchecked study: %+v", clean.Tally)
	}
	key := refKey("test", "stencil", 1)
	ref, ok := clean.Refs[key]
	if !ok || ref.Makespan == 0 || ref.Messages == 0 || ref.Events == 0 {
		t.Fatalf("study recorded no outputs under %q: %v", key, clean.Refs)
	}
	if p := smallStudy(t, references{key: ref}); p.Tally.Failed != 0 {
		t.Fatalf("matching reference failed: %v", p.Tally.Reasons)
	}
	for name, bad := range map[string]reference{
		"makespan": {Makespan: ref.Makespan + 1, Messages: ref.Messages, Events: ref.Events},
		"messages": {Makespan: ref.Makespan, Messages: ref.Messages - 1, Events: ref.Events},
		"events":   {Makespan: ref.Makespan, Messages: ref.Messages, Events: ref.Events + 1},
	} {
		p := smallStudy(t, references{key: bad})
		if p.Tally.Failed != 1 || p.Tally.failedRatio() <= clean.Tally.failedRatio() {
			t.Errorf("wrong %s reference: failed %d of %d, want exactly one failed operation",
				name, p.Tally.Failed, p.Tally.Attempted)
		}
	}
}

func TestCounterStoreFlagsNondeterminism(t *testing.T) {
	dir := t.TempDir()
	run := map[string]int64{"core.rounds": 10, "enoc.cycles": 4242}
	if diffs, err := checkCounters(dir, "abc", "mesh-study", 42, run); err != nil || diffs != nil {
		t.Fatalf("first run stores: diffs %v err %v", diffs, err)
	}
	if diffs, err := checkCounters(dir, "abc", "mesh-study", 42, run); err != nil || len(diffs) != 0 {
		t.Fatalf("identical rerun: diffs %v err %v", diffs, err)
	}
	changed := map[string]int64{"core.rounds": 9, "enoc.cycles": 4242, "onoc.cycles": 1}
	diffs, err := checkCounters(dir, "abc", "mesh-study", 42, changed)
	if err != nil || len(diffs) != 2 {
		t.Fatalf("changed rerun: diffs %v err %v, want rounds and onoc.cycles", diffs, err)
	}
	// Other code (source digest) or another seed is compared separately.
	if diffs, _ := checkCounters(dir, "def", "mesh-study", 42, changed); len(diffs) != 0 {
		t.Fatalf("other source digest compared against the first: %v", diffs)
	}
}

func TestRecordedReferencesCoverBothSeeds(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		for w, kw := range kernelWorkloads {
			for i := 0; i < subSeeds[w]; i++ {
				for _, k := range kw.kernels {
					if _, ok := refs[refKey(w, k, subSeed(seed, i))]; !ok {
						t.Errorf("no reference for %s", refKey(w, k, subSeed(seed, i)))
					}
				}
			}
		}
		if _, ok := refs[refKey("stream-trace", "uniform", subSeed(seed, 0))]; !ok {
			t.Errorf("no stream-trace reference for seed %d", seed)
		}
	}
	// The held-out seed must give other model outputs than the default.
	a, b := refs[refKey("mesh-study", "stencil", subSeed(defaultSeed, 0))], refs[refKey("mesh-study", "stencil", subSeed(heldOutSeed, 0))]
	if a == b {
		t.Errorf("default and held-out seeds recorded identical outputs %+v", a)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric tables in this package
// and the repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, catalog %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
	for _, w := range doc.Workloads {
		if _, ok := subSeeds[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
}
