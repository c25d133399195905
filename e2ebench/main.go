// Command e2ebench is onocsim's end-to-end benchmark. It drives the
// simulator from outside: kernel and trace workloads call the exported
// functions of the root package and of internal/*, the daemon workload
// sends HTTP requests to a built onocsimd. See README.md.
//
//	bash e2ebench/run.sh --workload mesh-study --seed 42 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"onocsim"
	"onocsim/internal/workload"
)

// defaultSeed and heldOutSeed are the two seeds whose model outputs are
// recorded in reference.json.
const (
	defaultSeed = 42
	heldOutSeed = 7
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	root     string
	record   bool
	// worker mode: run one pass of a kernel or trace workload.
	worker    bool
	sub       uint64
	input     string
	origin    int64
	setupOnly bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: mesh-study, optical-kernels, stream-trace or daemon-mix")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 36, "measurement time in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root; outputs go to <root>/.bench_build")
	flag.BoolVar(&o.record, "record", false, "merge this run's model outputs into e2ebench/reference.json")
	flag.BoolVar(&o.worker, "worker", false, "internal: run one pass in this process")
	flag.Uint64Var(&o.sub, "sub", 0, "internal: the pass's seed")
	flag.StringVar(&o.input, "input", "", "internal: trace file of a stream-trace pass")
	flag.Int64Var(&o.origin, "origin", 0, "internal: run start, Unix nanoseconds")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: exit once set up")
	flag.Parse()

	var err error
	if o.worker {
		err = workerMain(o)
	} else {
		err = coordinate(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// kernelWorkloads are the study workloads: the kernels one pass studies and
// the target fabric.
var kernelWorkloads = map[string]struct {
	kernels []string
	target  onocsim.NetworkKind
}{
	"mesh-study":      {[]string{"stencil"}, onocsim.Electrical},
	"optical-kernels": {workload.KernelNames(), onocsim.Optical},
}

// subSeeds is how many distinct inputs one run cycles through. Every run
// completes at least one cycle, so the per-run work counters are fixed by
// the seed; timings are averaged over the cycle, which keeps the spread
// between seeds small although single inputs differ by up to 1.5× in work.
// optical-kernels runs by name but is not in BENCHMARK.json: its spread
// between runs exceeded the bound (see README.md).
var subSeeds = map[string]int{
	"mesh-study":      10,
	"optical-kernels": 8,
	"stream-trace":    1,
	"daemon-mix":      2,
}

// setupSamples is how many extra set-ups (start a process, set up, exit) a
// run measures before its passes, so that setup_s is a median over many.
const setupSamples = 10

// subSeed derives the i-th input seed of a run.
func subSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// passResult is what one pass reports: a study pass (one study per kernel),
// a stream pass, or one daemon lifetime.
type passResult struct {
	Sub uint64 `json:"sub"`
	// Phases holds end-to-end phase times in seconds.
	Phases map[string]float64 `json:"phases"`
	// Layers holds per-layer times and values of this pass.
	Layers map[string]float64 `json:"layers"`
	// Counters holds deterministic work counts, fixed by Sub.
	Counters map[string]int64 `json:"counters"`
	Tally    tally            `json:"tally"`
	Spans    []Span           `json:"spans,omitempty"`
	// Refs are the model outputs, for -record.
	Refs references `json:"refs,omitempty"`
	// Set by the coordinator.
	SetupS float64 `json:"-"`
	RSSMB  float64 `json:"-"`
}

func newPass(sub uint64) *passResult {
	return &passResult{Sub: sub, Phases: map[string]float64{}, Layers: map[string]float64{},
		Counters: map[string]int64{}, Refs: references{}}
}

func (p *passResult) count(name string, v int64) { p.Counters[name] += v }

// workerMain runs one pass: set-up, a "ready" line on stdout (the end of
// set-up as the coordinator sees it), the timed work, then the pass result
// as JSON.
func workerMain(o options) error {
	t := newTracer(o.trace == 1, time.Unix(0, o.origin))
	p := newPass(o.sub)
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	ready := func() { fmt.Println("ready") }
	if kw, ok := kernelWorkloads[o.workload]; ok {
		cfgs, err := studySetup(kw.kernels, o.sub, kw.target)
		if err != nil {
			return err
		}
		ready()
		if o.setupOnly {
			return nil
		}
		runStudies(t, cfgs, kw.target, refs, o.workload, p)
	} else if o.workload == "stream-trace" {
		src, err := onocsim.OpenTraceFile(o.input)
		if err != nil {
			return err
		}
		ready()
		if o.setupOnly {
			return nil
		}
		key := refKey(o.workload, "uniform", o.sub)
		runStream(t, src, refs[key], key, p)
	} else {
		return fmt.Errorf("worker: unknown workload %q", o.workload)
	}
	p.Spans = t.spans
	return json.NewEncoder(os.Stdout).Encode(p)
}

// startWorker starts this program as a worker and waits for its "ready"
// line; the wait is the worker's set-up time.
func startWorker(o options, sub uint64, input string, origin time.Time, extra ...string) (*exec.Cmd, *bufio.Reader, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, 0, err
	}
	args := append([]string{"-worker", "-workload", o.workload, "-sub", fmt.Sprint(sub),
		"-trace", fmt.Sprint(o.trace), "-input", input, "-origin", fmt.Sprint(origin.UnixNano())}, extra...)
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, nil, 0, err
	}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	setup := time.Since(start)
	if err == nil && line != "ready\n" {
		err = fmt.Errorf("unexpected worker output %q", line)
	}
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, nil, 0, fmt.Errorf("worker %s seed %d: %w", o.workload, sub, err)
	}
	return cmd, br, setup, nil
}

// measureSetup starts a worker that exits once set up.
func measureSetup(o options, sub uint64, input string, origin time.Time) (float64, error) {
	cmd, br, setup, err := startWorker(o, sub, input, origin, "-setup-only")
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, br)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("worker %s seed %d: %w", o.workload, sub, err)
	}
	return setup.Seconds(), nil
}

// runWorker runs one pass in a fresh process and returns its result with
// the set-up time and the process's peak RSS.
func runWorker(o options, sub uint64, input string, origin time.Time) (*passResult, error) {
	cmd, br, setup, err := startWorker(o, sub, input, origin)
	if err != nil {
		return nil, err
	}
	var p passResult
	derr := json.NewDecoder(br).Decode(&p)
	_, _ = io.Copy(io.Discard, br)
	if err := errors.Join(derr, cmd.Wait()); err != nil {
		return nil, fmt.Errorf("worker %s seed %d: %w", o.workload, sub, err)
	}
	p.SetupS = setup.Seconds()
	p.RSSMB = peakRSSMB(cmd.ProcessState)
	return &p, nil
}

// peakRSSMB is a finished process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// coordinate runs the workload for the measurement time, checks outputs and
// determinism, and prints the report.
func coordinate(o options) error {
	subs, ok := subSeeds[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want mesh-study, optical-kernels, stream-trace or daemon-mix)", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1")
	}
	out := filepath.Join(o.root, ".bench_build")
	origin := time.Now()
	var r *runResult
	var err error
	if o.workload == "daemon-mix" {
		r, err = runDaemonMix(o, subs, out, origin)
	} else {
		r, err = runPasses(o, subs, out, origin)
	}
	if err != nil {
		return err
	}
	if o.record {
		all := references{}
		for _, p := range r.passes {
			for k, v := range p.Refs {
				all[k] = v
			}
		}
		if err := recordReferences(filepath.Join(o.root, "e2ebench", "reference.json"), all); err != nil {
			return err
		}
	}
	env := currentEnvironment(o.root)
	r.checkDeterminism(filepath.Join(out, "counters"), env.SourceHash, o)
	return r.report(o, out, env)
}

// runPasses runs kernel or stream passes until the measurement time is used
// up, completing at least one cycle of sub-seeds.
func runPasses(o options, subs int, out string, origin time.Time) (*runResult, error) {
	r := &runResult{subs: subs}
	var in streamInput
	if o.workload == "stream-trace" {
		var err error
		if in, err = writeStreamInput(filepath.Join(out, "inputs"), subSeed(o.seed, 0)); err != nil {
			return nil, err
		}
		defer os.Remove(in.path)
		r.stream = &in
	}
	err := r.measure(o.seconds, func(i int) (float64, error) {
		return measureSetup(o, subSeed(o.seed, i%subs), in.path, origin)
	}, func(i int) (*passResult, error) {
		p, err := runWorker(o, subSeed(o.seed, i%subs), in.path, origin)
		if err == nil {
			shiftSpans(p.Spans, i, &r.spans)
		}
		return p, err
	})
	return r, err
}

// measure makes setupSamples set-ups, then runs passes until seconds are
// used up, completing at least one cycle of r.subs inputs. A pass is not
// started when the mean pass so far would overrun the measurement time.
func (r *runResult) measure(seconds int, setup func(i int) (float64, error), pass func(i int) (*passResult, error)) error {
	start := time.Now()
	for i := 0; i < setupSamples; i++ {
		s, err := setup(i)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, s)
	}
	deadline := start.Add(time.Duration(seconds) * time.Second)
	passStart := time.Now()
	for i := 0; ; i++ {
		if i >= r.subs {
			perPass := time.Since(passStart) / time.Duration(i)
			if time.Now().Add(perPass).After(deadline) {
				break
			}
		}
		p, err := pass(i)
		if err != nil {
			return err
		}
		r.passes = append(r.passes, p)
	}
	r.measured = time.Since(start)
	return nil
}

// shiftSpans appends a pass's spans to all, tagging them with the pass
// number and rebasing parent indices.
func shiftSpans(spans []Span, pass int, all *[]Span) {
	base := len(*all)
	for _, s := range spans {
		s.ID = pass
		if s.Parent >= 0 {
			s.Parent += base
		}
		*all = append(*all, s)
	}
}
