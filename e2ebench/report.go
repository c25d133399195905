package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// runResult is everything one benchmark run measured.
type runResult struct {
	subs     int
	passes   []*passResult
	spans    []Span
	measured time.Duration
	stream   *streamInput
	daemon   *daemonSamples
	// setups holds set-up times measured outside the passes.
	setups []float64
	// extra holds checks made after the passes (determinism).
	extra tally
}

// cycleMean groups a per-pass value by sub-seed, takes the fastest of each
// sub-seed's repeats, and averages those: every input of the cycle weighs
// the same however many times it ran. The fastest repeat, as in make
// bench-json, because the shared host drifts between fast and slow phases
// lasting seconds (±20% on an unchanged program), and slowness is the only
// direction that drift adds.
func (r *runResult) cycleMean(f func(*passResult) float64) float64 {
	return r.cycleReduce(f, slices.Min[[]float64])
}

// cycleReduce is cycleMean with reduce in place of the fastest repeat.
func (r *runResult) cycleReduce(f func(*passResult) float64, reduce func([]float64) float64) float64 {
	groups := map[uint64][]float64{}
	var order []uint64
	for _, p := range r.passes {
		if _, ok := groups[p.Sub]; !ok {
			order = append(order, p.Sub)
		}
		groups[p.Sub] = append(groups[p.Sub], f(p))
	}
	best := make([]float64, 0, len(order))
	for _, s := range order {
		best = append(best, reduce(groups[s]))
	}
	return mean(best)
}

// phase sums the cycle means of every phase time whose name is one of
// names or starts with one of them and "/" (a study phase per kernel), so
// each phase of each kernel is the fastest of its own repeats.
func (r *runResult) phase(names ...string) float64 {
	keys := map[string]bool{}
	for _, p := range r.passes {
		for k := range p.Phases {
			for _, n := range names {
				if k == n || strings.HasPrefix(k, n+"/") {
					keys[k] = true
				}
			}
		}
	}
	var sum float64
	for _, k := range sortedKeys(keys) {
		sum += r.cycleMean(func(p *passResult) float64 { return p.Phases[k] })
	}
	return sum
}

func (r *runResult) layer(name string) float64 {
	return r.cycleMean(func(p *passResult) float64 { return p.Layers[name] })
}

// bestPerKey returns, for each request timed under prefix ("miss/…",
// "hit/…", "quiet/…"), its fastest time over the repeats of its input.
func (r *runResult) bestPerKey(prefix string) []float64 {
	best := map[string]float64{}
	for _, p := range r.passes {
		for k, v := range p.Phases {
			if !strings.HasPrefix(k, prefix+"/") {
				continue
			}
			key := fmt.Sprint(p.Sub, k)
			if old, ok := best[key]; !ok || v < old {
				best[key] = v
			}
		}
	}
	out := make([]float64, 0, len(best))
	for _, k := range sortedKeys(best) {
		out = append(out, best[k])
	}
	return out
}

// counters sums each sub-seed's counters over one cycle, taking each
// sub-seed's first pass.
func (r *runResult) counters() map[string]int64 {
	seen := map[uint64]bool{}
	out := map[string]int64{}
	for _, p := range r.passes {
		if seen[p.Sub] {
			continue
		}
		seen[p.Sub] = true
		for k, v := range p.Counters {
			out[k] += v
		}
	}
	return out
}

// counter is a cycle total averaged per input.
func (r *runResult) counter(name string) float64 {
	return float64(r.counters()[name]) / float64(r.subs)
}

func (r *runResult) tally() tally {
	var t tally
	for _, p := range r.passes {
		t.add(p.Tally)
	}
	t.add(r.extra)
	return t
}

// checkDeterminism fails the run when a sub-seed's counters differ between
// its repeats in this run, or when the cycle's counters differ from those
// an earlier run of the same workload and seed stored.
func (r *runResult) checkDeterminism(dir, source string, o options) {
	first := map[uint64]*passResult{}
	for _, p := range r.passes {
		f, ok := first[p.Sub]
		if !ok {
			first[p.Sub] = p
			continue
		}
		r.extra.op(nil, nondeterminism(fmt.Sprintf("seed %d repeat", p.Sub), counterDiff(f.Counters, p.Counters)))
	}
	diffs, err := checkCounters(dir, source, o.workload, o.seed, r.counters())
	r.extra.op(err, nondeterminism(fmt.Sprintf("seed %d against the stored run", o.seed), diffs))
}

func nondeterminism(what string, diffs []string) string {
	if len(diffs) == 0 {
		return ""
	}
	return "nondeterminism: " + what + ": " + strings.Join(diffs, "; ")
}

// value is a metric value with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupS is the median over every set-up the run measured.
func (r *runResult) setupS() float64 {
	xs := append([]float64(nil), r.setups...)
	for _, p := range r.passes {
		xs = append(xs, p.SetupS)
	}
	return median(xs)
}

// peakRSSMB is each input's median peak over its repeats, averaged over
// the cycle. Not the smallest: a process's peak moves with garbage-collector
// timing, and on stream-trace an occasional pass peaks 16 MB below the
// usual 64 MB, so the smallest of a run's repeats is bimodal.
func (r *runResult) peakRSSMB() float64 {
	return r.cycleReduce(func(p *passResult) float64 { return p.RSSMB }, median)
}

// latencies returns the client latencies (ms) of repeated or of
// first-occurrence requests.
func latencies(samples []sample, repeat bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.repeat == repeat {
			out = append(out, float64(s.latency.Nanoseconds())/1e6)
		}
	}
	return out
}

// endToEnd computes the gated metrics (BENCHMARK.json end_to_end). Their
// meaning per workload is in README.md.
func (r *runResult) endToEnd() map[string]value {
	var pass, fast, slow float64
	switch {
	case r.daemon != nil:
		pass = r.phase("pass")
		fast = median(r.bestPerKey("hit"))
		slow = geoMean(r.bestPerKey("quiet"))
	case r.stream != nil:
		fast = r.phase("summary")
		slow = r.phase("correct")
		pass = fast + slow
	default:
		fast = r.phase("exec")
		slow = r.phase("capture", "correct")
		pass = fast + slow + r.phase("naive", "coupled")
	}
	return map[string]value{
		"setup_s":     {r.setupS(), "s"},
		"pass_ms":     {1e3 * pass, "ms"},
		"fast_ms":     {1e3 * fast, "ms"},
		"slow_ms":     {1e3 * slow, "ms"},
		"peak_rss_mb": {r.peakRSSMB(), "MB"},
	}
}

// namedMetric is an end-to-end result under its workload-specific name.
type namedMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

// workloadMetrics names the end-to-end results the way each workload defines
// them (study_s, hit_p50_ms, ...), including those not gated.
func (r *runResult) workloadMetrics() []namedMetric {
	e := r.endToEnd()
	t := r.tally()
	out := []namedMetric{{"setup_s", e["setup_s"].Value, "s", "(setup_s)"}}
	switch {
	case r.daemon != nil:
		misses := latencies(r.daemon.all, false)
		out = append(out,
			namedMetric{"req_per_s", float64(r.daemon.requests) / r.daemon.passTime.Seconds(), "1/s", ""},
			namedMetric{"hit_p50_ms", median(latencies(r.daemon.all, true)), "ms", "repeats within the mix"},
			namedMetric{"quiet_hit_p50_ms", e["fast_ms"].Value, "ms", "(fast_ms)"},
			namedMetric{"miss_p50_ms", median(misses), "ms", "all first occurrences of the run"},
			namedMetric{"miss_geomean_ms", 1e3 * geoMean(r.bestPerKey("miss")), "ms", "first occurrences within the mix"},
			namedMetric{"quiet_miss_geomean_ms", e["slow_ms"].Value, "ms", "(slow_ms)"})
		if tl, ok := tailPercentile(misses); ok {
			out = append(out, namedMetric{"miss_tail_ms", tl.Value, "ms",
				fmt.Sprintf("p%.1f of %d first-occurrence requests, %d beyond", tl.Pct, tl.N, tl.Beyond)})
		}
	case r.stream != nil:
		out = append(out,
			namedMetric{"stream_replay_s", e["fast_ms"].Value / 1e3, "s", "(fast_ms)"},
			namedMetric{"stream_correct_s", e["slow_ms"].Value / 1e3, "s", "(slow_ms)"})
	default:
		out = append(out,
			namedMetric{"study_s", e["pass_ms"].Value / 1e3, "s", "(pass_ms)"},
			namedMetric{"exec_s", e["fast_ms"].Value / 1e3, "s", "(fast_ms)"},
			namedMetric{"sctm_s", e["slow_ms"].Value / 1e3, "s", "(slow_ms)"},
			namedMetric{"sctm_err_pct", r.layer("core.sctm_err_pct"), "%", "mean over the cycle's studies"})
	}
	return append(out,
		namedMetric{"peak_rss_mb", e["peak_rss_mb"].Value, "MB", "(peak_rss_mb)"},
		namedMetric{"failed_ratio", t.failedRatio(), "-", fmt.Sprintf("%d of %d operations", t.Failed, t.Attempted)})
}

// perLayer computes every per-layer metric (BENCHMARK.json per_layer); a
// layer the workload does not exercise reads 0.
func (r *runResult) perLayer() map[string]value {
	v := map[string]float64{}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, name := range []string{"workload.generate_s", "cpu.exec_s", "cpu.capture_s", "cpu.alloc_mb",
		"trace.finish_s", "trace.alloc_mb", "core.schedule_s", "core.naive_s", "core.coupled_s",
		"core.alloc_mb", "core.sctm_err_pct", "analytic.estimate_s"} {
		v[name] = r.layer(name)
	}
	for _, name := range []string{"cpu.sim_cycles", "core.rounds", "core.converged", "core.replayed_events",
		"enoc.cycles", "enoc.hops", "onoc.cycles"} {
		v[name] = r.counter(name)
	}
	v["cpu.cycles_per_s"] = ratio(v["cpu.sim_cycles"], v["cpu.exec_s"]+v["cpu.capture_s"])
	correct := r.layer("core.correct_s")
	v["core.round_s"] = ratio(correct, v["core.rounds"])
	v["core.replay_events_per_s"] = ratio(v["core.replayed_events"], correct)
	if r.stream == nil && r.daemon == nil {
		v["core.sctm_vs_exec"] = ratio(r.phase("exec"), r.phase("capture", "correct"))
	}
	v["enoc.ns_per_cycle"] = ratio(1e9*r.layer("enoc.replay_s"), v["enoc.cycles"])
	v["onoc.ns_per_cycle"] = ratio(1e9*r.layer("onoc.replay_s"), v["onoc.cycles"])
	if in := r.stream; in != nil {
		v["trace.encode_events_per_s"] = ratio(float64(in.events), in.encodeS)
		v["trace.decode_events_per_s"] = ratio(float64(in.events), r.layer("trace.decode_s"))
		v["trace.file_bytes"] = float64(in.bytes)
	}
	if d := r.daemon; d != nil {
		v["simcache.misses"] = r.counter("simcache.misses")
		v["simcache.hits"] = r.layer("simcache.hits")
		v["simcache.waits"] = r.layer("simcache.waits")
		v["simcache.hit_ratio"] = ratio(v["simcache.hits"], v["simcache.hits"]+v["simcache.waits"]+v["simcache.misses"])
		v["sched.admitted"] = r.layer("sched.admitted")
		v["sched.cancelled"] = r.layer("sched.cancelled")
		for _, op := range []string{"exec", "correct", "study", "estimate"} {
			var xs []float64
			for _, s := range d.all {
				if s.op == op && !s.repeat {
					xs = append(xs, float64(s.serverMS))
				}
			}
			v["service."+op+"_ms"] = median(xs)
		}
		var over []float64
		for _, s := range d.all {
			over = append(over, float64(s.latency.Nanoseconds())/1e6-float64(s.serverMS))
		}
		v["service.overhead_ms"] = median(over)
		v["service.req_per_s"] = ratio(float64(d.requests), d.passTime.Seconds())
		if tl, ok := tailPercentile(latencies(d.all, false)); ok {
			v["service.miss_tail_ms"] = tl.Value
		}
		for _, name := range []string{"sweep.unique_jobs", "sweep.pruned", "sweep.simulated"} {
			v[name] = r.counter(name)
		}
		v["sweep.elapsed_ms"] = ratio(r.layer("sweep.elapsed_ms"), r.layer("sweep.requests"))
	}
	out := make(map[string]value, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.name] = value{v[m.name], m.unit}
	}
	return out
}

// environment records where and on what a run was made.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func currentEnvironment(root string) environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not a git checkout)",
		SourceHash: sourceHash(root),
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	return env
}

// sourceHash digests the module's Go sources and go.mod, naming the code
// under test when the checkout carries no git metadata.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// report prints the human-readable report, writes the results (and, when
// tracing, the Chrome trace) under out, and prints the result line last.
func (r *runResult) report(o options, out string, env environment) error {
	t := r.tally()
	w := os.Stdout
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  passes %d (cycle of %d inputs)  measured %.1f s\n",
		o.workload, o.seed, o.trace, len(r.passes), r.subs, r.measured.Seconds())
	fmt.Fprintf(w, "env: nproc %d  GOMAXPROCS %d  %s  commit %s  source %s\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.SourceHash[:16])
	for _, m := range r.workloadMetrics() {
		fmt.Fprintf(w, "  %-18s %14.6g %-4s %s\n", m.name, m.value, m.unit, m.note)
	}
	counters := r.counters()
	fmt.Fprintf(w, "counters (cycle totals):")
	for _, k := range sortedKeys(counters) {
		fmt.Fprintf(w, " %s=%d", k, counters[k])
	}
	fmt.Fprintln(w)
	for _, why := range t.Reasons {
		fmt.Fprintln(w, "  FAILED:", why)
	}

	metrics := r.endToEnd()
	var overhead *float64
	if o.trace == 1 {
		metrics = r.perLayer()
		overhead = r.printTraced(w, o, out)
	}
	if err := os.MkdirAll(filepath.Join(out, "results"), 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": o.trace, "seconds": o.seconds,
		"passes": len(r.passes), "env": env, "metrics": metrics, "end_to_end": r.endToEnd(),
		"counters": counters, "attempted": t.Attempted, "failed": t.Failed, "failures": t.Reasons,
		"trace_overhead_ms": overhead,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace)
	if err := os.WriteFile(filepath.Join(out, "results", name), data, 0o644); err != nil {
		return err
	}

	line, err := json.Marshal(map[string]any{
		"correct": t.Failed == 0 && t.Attempted > 0, "attempted": t.Attempted, "failed": t.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// printTraced prints the per-layer metrics and layer self times, writes
// the Chrome trace, and returns the tracing overhead when an untraced run
// of the same seed left its results.
func (r *runResult) printTraced(w io.Writer, o options, out string) *float64 {
	layers := r.perLayer()
	fmt.Fprintln(w, "per-layer metrics (should move → end-to-end metric on workload):")
	for _, m := range perLayerMetrics {
		fmt.Fprintf(w, "  %-26s %14.6g %-6s → %s\n", m.name, layers[m.name].Value, m.unit, m.moves)
	}
	self := layerSelfTimes(r.spans)
	var total float64
	for _, us := range self {
		total += us
	}
	fmt.Fprintln(w, "layer self time (span time minus child spans), whole run:")
	for _, l := range sortedKeys(self) {
		fmt.Fprintf(w, "  %-10s %10.3f s  %5.1f%%\n", l, self[l]/1e6, 100*self[l]/math.Max(total, 1))
	}
	path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeTraceFile(path, r.spans); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: trace file:", err)
	} else {
		fmt.Fprintf(w, "chrome trace: %s (%d spans; open in https://ui.perfetto.dev)\n", path, len(r.spans))
	}
	var untraced struct {
		EndToEnd map[string]value `json:"end_to_end"`
	}
	data, err := os.ReadFile(filepath.Join(out, "results", fmt.Sprintf("%s-seed%d-trace0.json", o.workload, o.seed)))
	if err != nil || json.Unmarshal(data, &untraced) != nil {
		fmt.Fprintln(w, "tracing overhead: run --trace 0 with the same seed first")
		return nil
	}
	d := r.endToEnd()["pass_ms"].Value - untraced.EndToEnd["pass_ms"].Value
	fmt.Fprintf(w, "tracing overhead: pass_ms traced − untraced = %.1f ms (%.1f%%)\n",
		d, 100*d/untraced.EndToEnd["pass_ms"].Value)
	return &d
}

func writeTraceFile(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
