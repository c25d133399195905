// Command benchjson converts `go test -bench` output into a machine-readable
// JSON snapshot, optionally folding in a recorded baseline run so the file
// carries before/after numbers and speedups side by side. The baseline may be
// raw `go test -bench` text or a snapshot this tool wrote earlier (its
// "current" section becomes the reference), so successive PRs chain:
// BENCH_PR1.json baselines BENCH_PR2.json, and so on.
//
// With -maxregress, benchjson also acts as a CI gate: it exits nonzero when
// any benchmark present in both runs got slower than the allowed percentage.
// Wall clock on a shared host is the noisiest number a run carries, so the
// gate leans on the deterministic counters instead: allocs/op, allocs/event,
// max RSS and the mesh work counters (router-cycles/op, slots-visited/op,
// flits-moved/op) are gated by the separate, much stricter -counterregress
// threshold (default 5%), which fires independently of -maxregress. The
// timing threshold can also be set per-host through the BENCH_TOLERANCE
// environment variable; an explicit -maxregress flag wins over it.
//
// Usage:
//
//	go test -run '^$' -bench=. -benchmem ./... | benchjson -out BENCH.json -baseline BENCH_BASELINE.txt
//	go test -run '^$' -bench=. -benchmem ./... | benchjson -out BENCH_PR2.json -baseline BENCH_PR1.json -maxregress 25
//	BENCH_TOLERANCE=40 make bench-json   # noisy host: loosen timing, counters stay strict
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"onocsim/internal/cliutil"
	"onocsim/internal/metrics"
)

// Result is one benchmark measurement. MaxRSSBytes and AllocsPerEvent come
// from the repo's memory benchmarks, which report them as the custom units
// "max-rss-bytes" and "allocs/event"; they are the gate for the streaming
// replay path's O(window) residency contract. The Work fields are the
// electrical mesh's work counters (enoc.WorkCounters), reported per op by
// the mesh benchmarks as "router-cycles/op", "slots-visited/op" and
// "flits-moved/op"; they gate switch-allocator changes without timing.
type Result struct {
	Iterations       int64   `json:"iterations"`
	NsPerOp          float64 `json:"ns_per_op"`
	BytesPerOp       int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp      int64   `json:"allocs_per_op,omitempty"`
	MaxRSSBytes      int64   `json:"max_rss_bytes,omitempty"`
	AllocsPerEvent   float64 `json:"allocs_per_event,omitempty"`
	WorkRouterCycles float64 `json:"router_cycles_per_op,omitempty"`
	WorkSlotsVisited float64 `json:"slots_visited_per_op,omitempty"`
	WorkFlitsMoved   float64 `json:"flits_moved_per_op,omitempty"`
}

// counterField is one float-valued counter of a Result: its benchmark unit
// and a pointer to the field holding it.
type counterField struct {
	unit string
	v    *float64
}

// floatCounters lists the float-valued deterministic counters of r, so
// parsing, repeat collapsing and gating treat them alike.
func (r *Result) floatCounters() []counterField {
	return []counterField{
		{"allocs/event", &r.AllocsPerEvent},
		{"router-cycles/op", &r.WorkRouterCycles},
		{"slots-visited/op", &r.WorkSlotsVisited},
		{"flits-moved/op", &r.WorkFlitsMoved},
	}
}

// Snapshot is the emitted document.
type Snapshot struct {
	// Env echoes the goos/goarch/pkg/cpu header lines of the current run.
	Env map[string]string `json:"env,omitempty"`
	// Baseline holds the recorded reference run, when one was supplied.
	Baseline map[string]Result `json:"baseline,omitempty"`
	// Current holds the run parsed from stdin.
	Current map[string]Result `json:"current"`
	// Speedup is baseline ns/op divided by current ns/op, for benchmarks
	// present in both runs.
	Speedup map[string]float64 `json:"speedup,omitempty"`
}

// parse reads `go test -bench` output: header key: value lines and benchmark
// result lines ("BenchmarkName-8  20  105088199 ns/op  ... B/op  ... allocs/op").
// The memory units "max-rss-bytes" and "allocs/event" and the mesh work
// counters are captured; other custom metrics (e.g. "5.000 rows") are
// ignored. Repeated lines for the same benchmark (from `-count=N`) collapse
// to the fastest run: on a shared CI host the minimum is the measurement
// least polluted by scheduler and neighbor noise, and the regression gate
// should compare code, not load. Memory fields and counters collapse to
// their own minima across the repeats for the same reason — a GC that a
// neighbor's load delayed inflates a single repeat's residency, not the
// code's.
func parse(r io.Reader) (map[string]Result, map[string]string, error) {
	results := map[string]Result{}
	env := map[string]string{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, v, ok := strings.Cut(line, ": "); ok && !strings.Contains(k, " ") {
			env[k] = v
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				// The suffix is the run's GOMAXPROCS; record it alongside the
				// cpu/goos header lines so snapshots compared across hosts are
				// self-describing.
				env["gomaxprocs"] = name[i+1:]
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			val, unit := f[i], f[i+1]
			switch unit {
			case "ns/op":
				res.NsPerOp, _ = strconv.ParseFloat(val, 64)
			case "B/op":
				res.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				res.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "max-rss-bytes":
				v, _ := strconv.ParseFloat(val, 64)
				res.MaxRSSBytes = int64(v)
			default:
				for _, c := range res.floatCounters() {
					if c.unit == unit {
						*c.v, _ = strconv.ParseFloat(val, 64)
					}
				}
			}
		}
		if res.NsPerOp > 0 {
			if prev, ok := results[name]; ok {
				// Timing comes from the faster repeat; every counter
				// collapses to its own minimum. allocs/op included: a GC
				// emptying a sync.Pool mid-repeat inflates one repeat's
				// count, not the code's, and the jitter is always upward.
				merged := res
				if prev.NsPerOp < res.NsPerOp {
					merged = prev
				}
				merged.MaxRSSBytes = minNonzero(res.MaxRSSBytes, prev.MaxRSSBytes)
				merged.AllocsPerOp = minNonzero(res.AllocsPerOp, prev.AllocsPerOp)
				mc, rc, pc := merged.floatCounters(), res.floatCounters(), prev.floatCounters()
				for i := range mc {
					*mc[i].v = minNonzeroF(*rc[i].v, *pc[i].v)
				}
				res = merged
			}
			results[name] = res
		}
	}
	return results, env, sc.Err()
}

// minNonzero folds repeat measurements where zero means "not reported".
func minNonzero(a, b int64) int64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

func minNonzeroF(a, b float64) float64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

// parseBaseline reads a baseline file: either raw `go test -bench` text or a
// JSON snapshot written by this tool, whose "current" results become the
// reference numbers.
func parseBaseline(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "{") {
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("parsing %s as a snapshot: %w", path, err)
		}
		if len(snap.Current) == 0 {
			return nil, fmt.Errorf("snapshot %s has no current results", path)
		}
		return snap.Current, nil
	}
	res, _, err := parse(strings.NewReader(string(data)))
	return res, err
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline run to embed: raw `go test -bench` text or a benchjson snapshot")
	maxRegress := flag.Float64("maxregress", 0, "fail (exit 1) if any benchmark's ns/op regresses more than this percent vs the baseline (0 disables; the BENCH_TOLERANCE env var overrides the value unless the flag is set explicitly)")
	counterRegress := flag.Float64("counterregress", 5, "fail (exit 1) if a deterministic counter — allocs/op, allocs/event, max RSS, mesh router-cycles/slots-visited/flits-moved per op — regresses more than this percent vs the baseline (0 disables; gates independently of -maxregress)")
	table := flag.Bool("table", false, "also render the comparison as an aligned ASCII table on stderr (stdout when -out is set)")
	flag.Parse()
	explicit := false
	flag.CommandLine.Visit(func(f *flag.Flag) {
		if f.Name == "maxregress" {
			explicit = true
		}
	})
	tol, err := timingTolerance(*maxRegress, explicit, os.Getenv("BENCH_TOLERANCE"))
	if err == nil {
		err = run(os.Stdin, *out, *baseline, tol, *counterRegress, *table)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

// timingTolerance resolves the effective timing threshold. Timing noise is
// host-specific, so the threshold alone is environment-overridable: CI on a
// noisy shared box exports BENCH_TOLERANCE once instead of patching every
// invocation. An explicitly passed -maxregress is a deliberate per-run
// choice and wins; the counters' threshold is never widened this way.
func timingTolerance(flagValue float64, explicit bool, env string) (float64, error) {
	if explicit || env == "" {
		return flagValue, nil
	}
	tol, err := strconv.ParseFloat(env, 64)
	if err != nil || tol < 0 {
		return 0, cliutil.Usagef("bad BENCH_TOLERANCE %q (want a percentage >= 0)", env)
	}
	return tol, nil
}

// comparisonTable renders a snapshot as a typed table, one row per current
// benchmark in name order, with baseline and speedup columns when a baseline
// is present.
func comparisonTable(snap Snapshot) *metrics.Table {
	names := make([]string, 0, len(snap.Current))
	for name := range snap.Current {
		names = append(names, name)
	}
	sort.Strings(names)
	t := metrics.NewTable("benchmark comparison (ns/op)",
		"benchmark", "baseline", "current", "speedup", "delta", "B/op", "allocs/op", "max RSS", "RSS delta")
	for _, name := range names {
		c := snap.Current[name]
		base, hasBase := snap.Baseline[name]
		baseCell := metrics.String("—")
		speedCell := metrics.String("—")
		deltaCell := metrics.String("—")
		rssCell := metrics.String("—")
		rssDeltaCell := metrics.String("—")
		if hasBase {
			baseCell = metrics.Float(base.NsPerOp, 0, "ns/op")
			if sp, ok := snap.Speedup[name]; ok {
				speedCell = metrics.Ratio(sp, 2)
			}
			if base.NsPerOp > 0 {
				// Signed relative change versus the baseline, as a typed
				// percent cell: negative is faster.
				deltaCell = metrics.Percent((c.NsPerOp - base.NsPerOp) / base.NsPerOp)
			}
		}
		if c.MaxRSSBytes > 0 {
			rssCell = metrics.Int(c.MaxRSSBytes, "B")
			if hasBase && base.MaxRSSBytes > 0 {
				rssDeltaCell = metrics.Percent(float64(c.MaxRSSBytes-base.MaxRSSBytes) / float64(base.MaxRSSBytes))
			}
		}
		t.AddCells(
			metrics.String(strings.TrimPrefix(name, "Benchmark")),
			baseCell,
			metrics.Float(c.NsPerOp, 0, "ns/op"),
			speedCell,
			deltaCell,
			metrics.Int(c.BytesPerOp, "B/op"),
			metrics.Int(c.AllocsPerOp, "allocs/op"),
			rssCell,
			rssDeltaCell,
		)
	}
	return t
}

// run converts stdin into a snapshot. A failed regression gate is a runtime
// failure (exit 1), matching CI conventions; only bad flag values exit 2.
// maxRegress gates wall clock; counterRegress gates the deterministic
// counters (allocs/op, allocs/event, max RSS, mesh work), which are immune
// to host noise and therefore hold a much tighter line.
func run(stdin io.Reader, out, baseline string, maxRegress, counterRegress float64, table bool) error {
	if maxRegress < 0 {
		return cliutil.Usagef("negative -maxregress %v (want a percentage >= 0)", maxRegress)
	}
	if counterRegress < 0 {
		return cliutil.Usagef("negative -counterregress %v (want a percentage >= 0)", counterRegress)
	}
	current, env, err := parse(stdin)
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark results on stdin")
	}
	// go test omits the -N name suffix when GOMAXPROCS is 1, so a
	// single-CPU host's output carries no parallelism marker at all. The
	// stdin pipeline runs benchjson on the same host as the benchmarks, so
	// its own value is theirs.
	if _, ok := env["gomaxprocs"]; !ok {
		env["gomaxprocs"] = strconv.Itoa(runtime.GOMAXPROCS(0))
	}
	snap := Snapshot{Env: env, Current: current}
	var regressions []string
	if baseline != "" {
		snap.Baseline, err = parseBaseline(baseline)
		if err != nil {
			return err
		}
		snap.Speedup = map[string]float64{}
		for name, b := range snap.Baseline {
			c, ok := current[name]
			if !ok || c.NsPerOp <= 0 {
				continue
			}
			// Two decimal places: benchmark noise makes more digits lie.
			snap.Speedup[name] = float64(int64(b.NsPerOp/c.NsPerOp*100)) / 100
			if maxRegress > 0 && c.NsPerOp > b.NsPerOp*(1+maxRegress/100) {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.0f ns/op vs baseline %.0f ns/op (+%.1f%%, limit %.0f%%)",
					name, c.NsPerOp, b.NsPerOp, (c.NsPerOp/b.NsPerOp-1)*100, maxRegress))
			}
			// The deterministic counters gate under their own, stricter
			// threshold: allocation counts and peak residency measure the
			// code, not the host, so they stay pinned even when a noisy
			// machine forces the timing tolerance wide open. Residency is
			// the streaming engines' whole point — an RSS regression is as
			// real as a slowdown.
			if counterRegress <= 0 {
				continue
			}
			limit := 1 + counterRegress/100
			// A +2 absolute grace on allocs/op keeps tiny benchmarks (a
			// handful of allocations, where one stray pool miss is >5%)
			// from flapping; percentage-meaningful counts still gate hard.
			if b.AllocsPerOp > 0 && float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*limit &&
				c.AllocsPerOp > b.AllocsPerOp+2 {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %d allocs/op vs baseline %d allocs/op (+%.1f%%, limit %.0f%%)",
					name, c.AllocsPerOp, b.AllocsPerOp,
					(float64(c.AllocsPerOp)/float64(b.AllocsPerOp)-1)*100, counterRegress))
			}
			cc := c.floatCounters()
			for i, bc := range b.floatCounters() {
				if bv, cv := *bc.v, *cc[i].v; bv > 0 && cv > bv*limit {
					regressions = append(regressions, fmt.Sprintf(
						"%s: %.2f %s vs baseline %.2f %s (+%.1f%%, limit %.0f%%)",
						name, cv, bc.unit, bv, bc.unit, (cv/bv-1)*100, counterRegress))
				}
			}
			if b.MaxRSSBytes > 0 && c.MaxRSSBytes > 0 &&
				float64(c.MaxRSSBytes) > float64(b.MaxRSSBytes)*limit {
				regressions = append(regressions, fmt.Sprintf(
					"%s: max RSS %d B vs baseline %d B (+%.1f%%, limit %.0f%%)",
					name, c.MaxRSSBytes, b.MaxRSSBytes,
					(float64(c.MaxRSSBytes)/float64(b.MaxRSSBytes)-1)*100, counterRegress))
			}
		}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(current), out)
	}
	if table {
		// With -out, stdout is free for the table; otherwise it carries the
		// JSON and the table goes to stderr.
		tw := os.Stderr
		if out != "" {
			tw = os.Stdout
		}
		if err := comparisonTable(snap).WriteASCII(tw); err != nil {
			return err
		}
	}
	if len(regressions) > 0 {
		// The snapshot is still written above: the numbers that failed the
		// gate are exactly the ones worth inspecting.
		msg := fmt.Sprintf("%d benchmark(s) regressed beyond the limit:", len(regressions))
		for _, r := range regressions {
			msg += "\n  " + r
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
