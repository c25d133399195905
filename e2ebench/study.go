package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"onocsim"
	"onocsim/internal/core"
	"onocsim/internal/cpu"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
	"onocsim/internal/workload"
)

// studyJitter is the compute jitter of the kernel workloads. At jitter 0
// the kernels ignore Config.Seed, so a held-out seed would re-run the same
// programs; 0.15 is the setting of the seed-robustness experiment R16.
const studyJitter = 0.15

// studyConfig is the library default configuration (64 cores, Shards=1, no
// streaming, no incremental correction, zero-load seeding) with the
// kernel, seed and target fabric of one study.
func studyConfig(kernel string, seed uint64, target onocsim.NetworkKind) onocsim.Config {
	cfg := onocsim.DefaultConfig()
	cfg.Seed = seed
	cfg.Network = target
	cfg.Workload.Kernel = kernel
	cfg.Workload.Jitter = studyJitter
	return cfg
}

// studySetup validates every configuration a study pass will run, the work
// that precedes the first timed operation.
func studySetup(kernels []string, seed uint64, target onocsim.NetworkKind) ([]onocsim.Config, error) {
	cfgs := make([]onocsim.Config, len(kernels))
	for i, k := range kernels {
		cfgs[i] = studyConfig(k, seed, target)
		if err := onocsim.ValidateNetworkKind(cfgs[i], target); err != nil {
			return nil, err
		}
		if err := onocsim.ValidateNetworkKind(cfgs[i], onocsim.IdealNet); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// runStudies runs one full study per configuration, serially on the calling
// goroutine: execution-driven truth on the target, capture on the ideal
// fabric, naive replay, coupled replay, then self-correction. Phase times go
// to p.Phases as "<phase>/<kernel>", work counters to p.Counters, per-layer
// times to p.Layers. Reference values recorded for a study's seed are
// checked.
func runStudies(t *tracer, cfgs []onocsim.Config, target onocsim.NetworkKind, refs references, workloadName string, p *passResult) {
	ctx := context.Background()
	studies := 0
	// Only a traced run keeps the captured traces past their study: the
	// untraced run's peak RSS is the library's own.
	var done []studied
	_, _ = t.timed("study", func() error {
		for _, cfg := range cfgs {
			key := refKey(workloadName, cfg.Workload.Kernel, cfg.Seed)
			if s, ok := runStudy(ctx, t, cfg, target, refs[key], key, p); ok {
				studies++
				if t.on {
					done = append(done, s)
				}
			}
		}
		return nil
	})
	if studies > 0 {
		p.Layers["core.sctm_err_pct"] /= float64(studies)
	}
	// Layer calls outside the study itself, timed for the per-layer report
	// only, so they do not count towards the traced study time.
	for _, s := range done {
		opts := core.ScheduleOptions{DisableSyncDeps: s.cfg.SCTM.DisableSyncDeps, DisableCausalDeps: s.cfg.SCTM.DisableCausalDeps}
		d, _ := t.timed("core.schedule", func() error {
			core.Schedule(s.tr, s.latency, opts)
			return nil
		})
		p.Layers["core.schedule_s"] += d.Seconds()
		d, err := t.timed("analytic.estimate", func() error {
			_, _, err := onocsim.EstimateAnalytic(s.cfg, s.tr, target)
			return err
		})
		p.Layers["analytic.estimate_s"] += d.Seconds()
		p.Tally.op(err)
	}
}

// studied is what the traced per-layer calls need from a finished study.
type studied struct {
	cfg     onocsim.Config
	tr      *trace.Trace
	latency []sim.Tick
}

func runStudy(ctx context.Context, t *tracer, cfg onocsim.Config, target onocsim.NetworkKind, ref reference, key string, p *passResult) (studied, bool) {
	kernel := cfg.Workload.Kernel
	maxCycles := cfg.MaxCyclesOrDefault()

	// Execution-driven truth on the target fabric.
	var exec cpu.RunResult
	d, err := t.timed("study.exec", func() error {
		progs, err := timedGenerate(t, p, cfg)
		if err != nil {
			return err
		}
		net, err := onocsim.BuildNetwork(cfg, target)
		if err != nil {
			return err
		}
		sys, err := cpu.NewSystem(cfg, progs, net, nil)
		if err != nil {
			return err
		}
		dr, err := t.timedAlloc("cpu.exec", p, "cpu.alloc_mb", func() error {
			var err error
			exec, err = sys.Run(maxCycles)
			return err
		})
		p.Layers["cpu.exec_s"] += dr.Seconds()
		return err
	})
	p.Phases["exec/"+kernel] = d.Seconds()
	p.Tally.op(err, mismatch(kernel+" exec makespan", uint64(exec.Makespan), ref.Makespan),
		mismatch(kernel+" exec messages", exec.Messages, ref.Messages))
	if err != nil {
		return studied{}, false
	}
	p.count("cpu.sim_cycles", int64(exec.Cycles))
	p.count("exec.makespan", int64(exec.Makespan))
	p.count("exec.messages", int64(exec.Messages))

	// Capture on the ideal fabric with a recorder.
	var tr *trace.Trace
	d, err = t.timed("study.capture", func() error {
		progs, err := timedGenerate(t, p, cfg)
		if err != nil {
			return err
		}
		net, err := onocsim.BuildNetwork(cfg, onocsim.IdealNet)
		if err != nil {
			return err
		}
		rec := trace.NewRecorder(cfg.System.Cores)
		sys, err := cpu.NewSystem(cfg, progs, net, rec)
		if err != nil {
			return err
		}
		var res cpu.RunResult
		dr, err := t.timedAlloc("cpu.capture", p, "cpu.alloc_mb", func() error {
			var err error
			res, err = sys.Run(maxCycles)
			return err
		})
		p.Layers["cpu.capture_s"] += dr.Seconds()
		if err != nil {
			return err
		}
		p.count("cpu.sim_cycles", int64(res.Cycles))
		df, err := t.timedAlloc("trace.finish", p, "trace.alloc_mb", func() error {
			var err error
			tr, err = rec.Finish(kernel, res.Makespan)
			return err
		})
		p.Layers["trace.finish_s"] += df.Seconds()
		return err
	})
	p.Phases["capture/"+kernel] = d.Seconds()
	var events uint64
	if tr != nil {
		events = uint64(len(tr.Events))
	}
	p.Tally.op(err, mismatch(kernel+" captured events", events, ref.Events))
	if err != nil {
		return studied{}, false
	}
	p.count("trace.events", int64(events))
	p.Refs[key] = reference{Makespan: uint64(exec.Makespan), Messages: exec.Messages, Events: events}

	// Naive and coupled replays on the target.
	var naive onocsim.ReplayResult
	d, err = t.timed("core.naive", func() error {
		var err error
		naive, _, err = onocsim.RunNaiveReplayContext(ctx, cfg, tr, target)
		return err
	})
	p.Phases["naive/"+kernel] = d.Seconds()
	p.Layers["core.naive_s"] += d.Seconds()
	p.Tally.op(err, delivered(kernel+" naive replay", naive.NetStats, len(tr.Events)))
	if err != nil {
		return studied{}, false
	}

	var coupled onocsim.ReplayResult
	d, err = t.timed("core.coupled", func() error {
		var err error
		coupled, _, err = onocsim.RunCoupledReplayContext(ctx, cfg, tr, target)
		return err
	})
	p.Phases["coupled/"+kernel] = d.Seconds()
	p.Layers["core.coupled_s"] += d.Seconds()
	p.Tally.op(err, delivered(kernel+" coupled replay", coupled.NetStats, len(tr.Events)))
	if err != nil {
		return studied{}, false
	}

	// The self-correction loop.
	var corr onocsim.CorrectionResult
	d, err = t.timedAlloc("core.correct", p, "core.alloc_mb", func() error {
		var err error
		corr, _, err = onocsim.RunSelfCorrectionContext(ctx, cfg, tr, target)
		return err
	})
	p.Phases["correct/"+kernel] = d.Seconds()
	p.Layers["core.correct_s"] += d.Seconds()
	replayCheck := ""
	if err == nil && corr.ReplayedEvents != len(tr.Events)*len(corr.Iterations) {
		replayCheck = fmt.Sprintf("%s correction replayed %d events over %d rounds of %d",
			kernel, corr.ReplayedEvents, len(corr.Iterations), len(tr.Events))
	}
	p.Tally.op(err, delivered(kernel+" correction", corr.Final.NetStats, len(tr.Events)), replayCheck)
	if err != nil {
		return studied{}, false
	}
	p.count("core.rounds", int64(len(corr.Iterations)))
	if corr.Converged {
		p.count("core.converged", 1)
	} else {
		p.count("core.converged", 0)
	}
	p.count("core.replayed_events", int64(corr.ReplayedEvents))
	fabric := "onoc"
	if target == onocsim.Electrical {
		fabric = "enoc"
		if st := corr.Final.NetStats; st != nil {
			p.count("enoc.hops", int64(st.HopCount.Sum()))
		}
	}
	p.count(fabric+".cycles", int64(corr.TotalCycles))
	p.Layers[fabric+".replay_s"] += d.Seconds()
	truth := onocsim.GroundTruth{Makespan: exec.Makespan}
	p.Layers["core.sctm_err_pct"] += 100 * onocsim.Compare(corr.Final, truth).MakespanErr
	s := studied{cfg: cfg, tr: tr}
	if t.on {
		s.latency = naive.Latencies()
	}
	return s, true
}

// timedGenerate builds the kernel's per-core programs inside a span.
func timedGenerate(t *tracer, p *passResult, cfg onocsim.Config) ([]cpu.Program, error) {
	var progs []cpu.Program
	d, err := t.timed("workload.generate", func() error {
		var err error
		progs, err = workload.Generate(cfg)
		return err
	})
	p.Layers["workload.generate_s"] += d.Seconds()
	return progs, err
}

// timedAlloc is timed plus, when tracing, the megabytes the call allocated,
// added to p.Layers[allocKey]. The run is single-goroutine, so the heap
// delta belongs to the call.
func (t *tracer) timedAlloc(name string, p *passResult, allocKey string, f func() error) (d time.Duration, err error) {
	if !t.on {
		return t.timed(name, f)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err = t.timed(name, f)
	runtime.ReadMemStats(&after)
	p.Layers[allocKey] += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return d, err
}

// delivered checks that a replay delivered every trace event.
func delivered(what string, st *noc.Stats, want int) string {
	if st == nil {
		return what + ": no fabric statistics"
	}
	if st.Delivered != uint64(want) {
		return fmt.Sprintf("%s delivered %d of %d events", what, st.Delivered, want)
	}
	return ""
}
