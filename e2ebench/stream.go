package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"onocsim"
	"onocsim/internal/trace"
	"onocsim/internal/workload"
)

// streamEvents is the stream-trace length: eight default streaming windows
// (trace.DefaultWindow is 64 Ki events), so the out-of-core engines cycle
// their window many times per pass.
const streamEvents = 8 * trace.DefaultWindow

// streamInput is the trace file a stream-trace run replays, written before
// timing starts.
type streamInput struct {
	path    string
	events  int
	bytes   int64
	encodeS float64
}

// writeStreamInput writes the seeded synthetic trace (uniform pattern, 16
// nodes) under dir.
func writeStreamInput(dir string, seed uint64) (streamInput, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return streamInput{}, err
	}
	spec := workload.DefaultHugeSpec()
	spec.Events = streamEvents
	spec.Seed = seed
	in := streamInput{path: filepath.Join(dir, fmt.Sprintf("stream-%d-%d.trace", seed, os.Getpid())), events: spec.Events}
	start := time.Now()
	if _, err := workload.WriteHugeFile(in.path, spec); err != nil {
		return streamInput{}, err
	}
	in.encodeS = time.Since(start).Seconds()
	st, err := os.Stat(in.path)
	if err != nil {
		return streamInput{}, err
	}
	in.bytes = st.Size()
	return in, nil
}

// streamConfig replays the 16-node trace on the optical crossbar with the
// library's default execution settings.
func streamConfig() onocsim.Config {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Network = onocsim.Optical
	return cfg
}

// runStream makes one naive summary pass and one streaming correction over
// src, checking that every event of the header is delivered.
func runStream(t *tracer, src onocsim.TraceSource, ref reference, key string, p *passResult) {
	ctx := context.Background()
	cfg := streamConfig()
	n := src.Meta().NumEvents
	p.Tally.op(nil, mismatch("trace header events", uint64(n), ref.Events))
	p.Refs[key] = reference{Events: uint64(n)}

	_, _ = t.timed("stream", func() error {
		var sum onocsim.ReplaySummary
		d, err := t.timed("core.summary", func() error {
			var err error
			sum, _, err = onocsim.RunNaiveReplaySummaryContext(ctx, cfg, src, onocsim.Optical)
			return err
		})
		p.Phases["summary"] = d.Seconds()
		p.Layers["core.naive_s"] += d.Seconds()
		p.Tally.op(err, delivered("summary pass", sum.NetStats, n))
		if err != nil {
			return nil
		}

		var corr onocsim.CorrectionResult
		d, err = t.timedAlloc("core.correct", p, "core.alloc_mb", func() error {
			var err error
			corr, _, err = onocsim.RunSelfCorrectionStreamContext(ctx, cfg, src, onocsim.Optical)
			return err
		})
		p.Phases["correct"] = d.Seconds()
		p.Layers["core.correct_s"] += d.Seconds()
		p.Layers["onoc.replay_s"] += d.Seconds()
		replayCheck := ""
		if err == nil && corr.ReplayedEvents != n*len(corr.Iterations) {
			replayCheck = fmt.Sprintf("streaming correction replayed %d events over %d rounds of %d",
				corr.ReplayedEvents, len(corr.Iterations), n)
		}
		p.Tally.op(err, delivered("streaming correction", corr.Final.NetStats, n), replayCheck)
		if err != nil {
			return nil
		}
		p.count("core.rounds", int64(len(corr.Iterations)))
		if corr.Converged {
			p.count("core.converged", 1)
		} else {
			p.count("core.converged", 0)
		}
		p.count("core.replayed_events", int64(corr.ReplayedEvents))
		p.count("onoc.cycles", int64(corr.TotalCycles))
		p.count("trace.events", int64(n))
		return nil
	})

	if !t.on {
		return
	}
	// One bare decode pass, outside the timed stream work.
	var decoded int
	d, err := t.timedAlloc("trace.decode", p, "trace.alloc_mb", func() error {
		it, err := src.Pass()
		if err != nil {
			return err
		}
		defer it.Close()
		var e trace.Event
		for {
			ok, err := it.Next(&e)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			decoded++
		}
	})
	p.Layers["trace.decode_s"] += d.Seconds()
	check := ""
	if err == nil && decoded != n {
		check = fmt.Sprintf("decode pass read %d of %d events", decoded, n)
	}
	p.Tally.op(err, check)
}
