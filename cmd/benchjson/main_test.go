package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"onocsim/internal/cliutil"
)

const benchOutput = `goos: linux
goarch: amd64
BenchmarkFast-8    100    1000 ns/op    64 B/op    2 allocs/op
BenchmarkSlow-8     10    9000 ns/op
`

// TestParseMinOfRepeats pins the -count=N collapse: repeated result lines
// for one benchmark keep the fastest run.
func TestParseMinOfRepeats(t *testing.T) {
	out := `BenchmarkHot-8  100  1500 ns/op
BenchmarkHot-8  100  1200 ns/op
BenchmarkHot-8  100  1900 ns/op
`
	res, _, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := res["BenchmarkHot"].NsPerOp; got != 1200 {
		t.Fatalf("min collapse: got %v ns/op, want 1200", got)
	}
}

func TestRunWritesSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader(benchOutput), out, "", 0, 5, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Current) != 2 || snap.Current["BenchmarkFast"].NsPerOp != 1000 {
		t.Fatalf("snapshot: %+v", snap.Current)
	}
}

// TestRunExitCodes pins the shared convention: bad flag values exit 2,
// while runtime failures — including a tripped regression gate — exit 1.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := run(strings.NewReader(benchOutput), base, "", 0, 5, false); err != nil {
		t.Fatal(err)
	}
	regressed := strings.ReplaceAll(benchOutput, "9000 ns/op", "90000 ns/op")
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"negative maxregress", run(strings.NewReader(benchOutput), "", "", -1, 5, false), 2},
		{"empty stdin", run(strings.NewReader(""), "", "", 0, 5, false), 1},
		{"missing baseline", run(strings.NewReader(benchOutput), "", filepath.Join(dir, "absent.json"), 0, 5, false), 1},
		{"regression gate", run(strings.NewReader(regressed), filepath.Join(dir, "out.json"), base, 25, 5, false), 1},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if got := cliutil.ExitCode(tc.err); got != tc.want {
			t.Errorf("%s: exit code %d, want %d (err: %v)", tc.name, got, tc.want, tc.err)
		}
	}
}

// TestRunGatePasses checks the gate stays quiet within the allowance and
// that the chained-snapshot baseline path computes speedups.
func TestRunGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := run(strings.NewReader(benchOutput), base, "", 0, 5, false); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")
	if err := run(strings.NewReader(benchOutput), out, base, 25, 5, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Speedup["BenchmarkFast"] != 1 {
		t.Fatalf("speedup = %v", snap.Speedup)
	}
}

// TestComparisonTable checks the -table rendering: rows in name order, the
// baseline and speedup columns filled when present and dashed when not.
func TestComparisonTable(t *testing.T) {
	snap := Snapshot{
		Current: map[string]Result{
			"BenchmarkZeta": {NsPerOp: 2000, BytesPerOp: 64, AllocsPerOp: 2},
			"BenchmarkAlfa": {NsPerOp: 500},
		},
		Baseline: map[string]Result{"BenchmarkZeta": {NsPerOp: 3000}},
		Speedup:  map[string]float64{"BenchmarkZeta": 1.5},
	}
	var buf bytes.Buffer
	if err := comparisonTable(snap).WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "Alfa") > strings.Index(out, "Zeta") {
		t.Fatalf("rows not sorted by name:\n%s", out)
	}
	// The delta column is a typed percent cell: 2000 vs 3000 baseline is a
	// signed −33.3% change, rendered by the percent kind, not preformatted.
	for _, want := range []string{"1.50x", "3000", "—", "-33.3%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestParseMemoryUnits pins the custom memory units: max-rss-bytes and
// allocs/event land in their own fields, and across -count repeats both
// collapse to their minima independently of which repeat was fastest.
func TestParseMemoryUnits(t *testing.T) {
	out := `BenchmarkStream-8  10  2000 ns/op  1048576 max-rss-bytes  3.50 allocs/event
BenchmarkStream-8  10  1500 ns/op  2097152 max-rss-bytes  3.75 allocs/event
`
	res, _, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	r := res["BenchmarkStream"]
	if r.NsPerOp != 1500 {
		t.Errorf("ns/op %v, want 1500 (fastest repeat)", r.NsPerOp)
	}
	if r.MaxRSSBytes != 1048576 {
		t.Errorf("max RSS %d, want 1048576 (min across repeats)", r.MaxRSSBytes)
	}
	if r.AllocsPerEvent != 3.50 {
		t.Errorf("allocs/event %v, want 3.5 (min across repeats)", r.AllocsPerEvent)
	}
}

// TestRSSGate checks that -maxregress also fails on a residency regression,
// even when timing improved.
func TestRSSGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	baseRun := "BenchmarkStream-8  10  2000 ns/op  1000000 max-rss-bytes\n"
	if err := run(strings.NewReader(baseRun), base, "", 0, 5, false); err != nil {
		t.Fatal(err)
	}
	// Faster but 3x the residency: must trip the gate.
	bloated := "BenchmarkStream-8  10  1000 ns/op  3000000 max-rss-bytes\n"
	err := run(strings.NewReader(bloated), filepath.Join(dir, "out.json"), base, 25, 5, false)
	if err == nil {
		t.Fatal("RSS regression passed the gate")
	}
	if !strings.Contains(err.Error(), "max RSS") {
		t.Fatalf("gate error does not name RSS: %v", err)
	}
	// Same residency within the limit passes.
	ok := "BenchmarkStream-8  10  1000 ns/op  1100000 max-rss-bytes\n"
	if err := run(strings.NewReader(ok), filepath.Join(dir, "out2.json"), base, 25, 25, false); err != nil {
		t.Fatalf("in-limit run failed the gate: %v", err)
	}
}

// TestTableRendersMemoryColumns smoke-checks the memory columns render.
func TestTableRendersMemoryColumns(t *testing.T) {
	snap := Snapshot{
		Current:  map[string]Result{"BenchmarkStream": {NsPerOp: 1000, MaxRSSBytes: 4096}},
		Baseline: map[string]Result{"BenchmarkStream": {NsPerOp: 1200, MaxRSSBytes: 2048}},
		Speedup:  map[string]float64{"BenchmarkStream": 1.2},
	}
	var buf bytes.Buffer
	if err := comparisonTable(snap).WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "max RSS") || !strings.Contains(s, "4096") {
		t.Fatalf("table missing memory column:\n%s", s)
	}
}

// TestCounterGate pins the counter-first gating: allocation regressions trip
// the strict -counterregress threshold even when timing is inside the loose
// timing tolerance (or improved outright), and the +2 absolute grace keeps
// one stray pool miss on a tiny benchmark from flapping.
func TestCounterGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	baseRun := "BenchmarkHot-8  100  1000 ns/op  64 B/op  100 allocs/op\n"
	if err := run(strings.NewReader(baseRun), base, "", 0, 5, false); err != nil {
		t.Fatal(err)
	}
	// Faster, but 20% more allocations: the counter gate must fire.
	bloated := "BenchmarkHot-8  100  800 ns/op  64 B/op  120 allocs/op\n"
	err := run(strings.NewReader(bloated), filepath.Join(dir, "out.json"), base, 50, 5, false)
	if err == nil {
		t.Fatal("allocation regression passed the gate")
	}
	if !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("gate error does not name allocs/op: %v", err)
	}
	// Ten times slower but allocation-identical: with timing gating disabled
	// the counters alone decide, and they pass.
	slow := "BenchmarkHot-8  100  10000 ns/op  64 B/op  100 allocs/op\n"
	if err := run(strings.NewReader(slow), filepath.Join(dir, "out2.json"), base, 0, 5, false); err != nil {
		t.Fatalf("counter-clean slow run failed the gate: %v", err)
	}
	// A tiny benchmark gaining a single allocation is >5% but inside the
	// absolute grace.
	tinyBase := filepath.Join(dir, "tiny.json")
	if err := run(strings.NewReader("BenchmarkTiny-8  100  1000 ns/op  8 B/op  2 allocs/op\n"), tinyBase, "", 0, 5, false); err != nil {
		t.Fatal(err)
	}
	oneMore := "BenchmarkTiny-8  100  1000 ns/op  8 B/op  3 allocs/op\n"
	if err := run(strings.NewReader(oneMore), filepath.Join(dir, "out3.json"), tinyBase, 0, 5, false); err != nil {
		t.Fatalf("one-alloc jitter tripped the gate: %v", err)
	}
}

// TestAllocsPerEventGate checks the per-event allocation counter gates under
// the strict threshold too.
func TestAllocsPerEventGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := run(strings.NewReader("BenchmarkStream-8  10  2000 ns/op  3.00 allocs/event\n"), base, "", 0, 5, false); err != nil {
		t.Fatal(err)
	}
	err := run(strings.NewReader("BenchmarkStream-8  10  2000 ns/op  4.00 allocs/event\n"), filepath.Join(dir, "out.json"), base, 0, 5, false)
	if err == nil || !strings.Contains(err.Error(), "allocs/event") {
		t.Fatalf("allocs/event regression not gated: %v", err)
	}
}

// TestParseMinAllocsAcrossRepeats pins that allocs/op collapses to the
// minimum across -count repeats independently of which repeat was fastest.
func TestParseMinAllocsAcrossRepeats(t *testing.T) {
	out := `BenchmarkHot-8  100  1500 ns/op  64 B/op  110 allocs/op
BenchmarkHot-8  100  1200 ns/op  64 B/op  118 allocs/op
`
	res, _, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	r := res["BenchmarkHot"]
	if r.NsPerOp != 1200 || r.AllocsPerOp != 110 {
		t.Fatalf("got %v ns/op, %d allocs/op; want fastest time 1200 with min allocs 110", r.NsPerOp, r.AllocsPerOp)
	}
}

// TestTimingTolerance pins the BENCH_TOLERANCE resolution order: explicit
// flag > environment > flag default, with malformed values as usage errors.
func TestTimingTolerance(t *testing.T) {
	if got, err := timingTolerance(25, false, ""); err != nil || got != 25 {
		t.Fatalf("default: %v, %v", got, err)
	}
	if got, err := timingTolerance(25, false, "40"); err != nil || got != 40 {
		t.Fatalf("env override: %v, %v", got, err)
	}
	if got, err := timingTolerance(25, true, "40"); err != nil || got != 25 {
		t.Fatalf("explicit flag must win: %v, %v", got, err)
	}
	for _, bad := range []string{"wide", "-3"} {
		if _, err := timingTolerance(25, false, bad); err == nil {
			t.Errorf("BENCH_TOLERANCE=%q accepted", bad)
		} else if cliutil.ExitCode(err) != 2 {
			t.Errorf("BENCH_TOLERANCE=%q: exit %d, want 2", bad, cliutil.ExitCode(err))
		}
	}
}

// TestParseRecordsGOMAXPROCS checks the env map carries the run's
// GOMAXPROCS, taken from the benchmark-name suffix, so cross-host snapshot
// comparisons are self-describing.
func TestParseRecordsGOMAXPROCS(t *testing.T) {
	_, env, err := parse(strings.NewReader("cpu: Example CPU @ 2.00GHz\nBenchmarkHot-8  100  1000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if env["gomaxprocs"] != "8" {
		t.Fatalf("gomaxprocs = %q, want 8", env["gomaxprocs"])
	}
	if env["cpu"] != "Example CPU @ 2.00GHz" {
		t.Fatalf("cpu = %q", env["cpu"])
	}
}

// TestSnapshotRecordsGOMAXPROCSWithoutSuffix pins the single-CPU fallback:
// go test omits the -N benchmark-name suffix when GOMAXPROCS is 1, so run
// fills the field from its own process, which shares the pipeline's host.
func TestSnapshotRecordsGOMAXPROCSWithoutSuffix(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader("BenchmarkBare  100  1000 ns/op\n"), out, "", 0, 5, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Env["gomaxprocs"] == "" {
		t.Fatal("snapshot env missing gomaxprocs")
	}
}

// TestMeshWorkCounters checks that the mesh work counters are parsed,
// collapse to their minima across repeats, and gate under the strict
// counter threshold even when the run got faster.
func TestMeshWorkCounters(t *testing.T) {
	out := `BenchmarkTickElectrical-2  1000  9000 ns/op  29.55 flits-moved/op  30.40 router-cycles/op  40.00 slots-visited/op  501 B/op  25 allocs/op
BenchmarkTickElectrical-2  1000  8000 ns/op  29.55 flits-moved/op  30.40 router-cycles/op  39.28 slots-visited/op  501 B/op  25 allocs/op
`
	res, _, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	r := res["BenchmarkTickElectrical"]
	if r.NsPerOp != 8000 || r.WorkRouterCycles != 30.40 || r.WorkSlotsVisited != 39.28 || r.WorkFlitsMoved != 29.55 {
		t.Fatalf("parsed %+v", r)
	}

	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := run(strings.NewReader(out), base, "", 0, 5, false); err != nil {
		t.Fatal(err)
	}
	// Twice as fast, allocation-identical, but the allocator visits 3×
	// the slots: the counter gate must fire and name the counter.
	regressed := "BenchmarkTickElectrical-2  1000  4000 ns/op  29.55 flits-moved/op  30.40 router-cycles/op  120.00 slots-visited/op  501 B/op  25 allocs/op\n"
	err = run(strings.NewReader(regressed), filepath.Join(dir, "out.json"), base, 25, 5, false)
	if err == nil || !strings.Contains(err.Error(), "slots-visited/op") {
		t.Fatalf("slots-visited regression not gated: %v", err)
	}
	// The same counters pass.
	if err := run(strings.NewReader(out), filepath.Join(dir, "out2.json"), base, 25, 5, false); err != nil {
		t.Fatalf("unchanged counters failed the gate: %v", err)
	}
	// With the counter gate disabled the regression passes.
	if err := run(strings.NewReader(regressed), filepath.Join(dir, "out3.json"), base, 25, 0, false); err != nil {
		t.Fatalf("disabled counter gate still fired: %v", err)
	}
}
