// Command onocsim runs one simulation described by a JSON config file, or a
// whole design-space sweep.
//
// Modes:
//
//	exec     — execution-driven simulation on the selected fabric
//	study    — full methodology comparison (ground truth, naive replay,
//	           coupled replay, self-correction) on the selected fabric
//	correct  — capture the config's kernel trace and run the
//	           self-correction loop on the selected fabric
//	estimate — price the config's kernel trace on the selected fabric with
//	           the closed-form contention model (no fabric ticks)
//	sweep    — expand a design grid (-sweep spec, or the built-in default),
//	           prune dominated arms with the analytic prefilter, simulate
//	           the survivors, and print the latency/throughput/power
//	           Pareto front
//
// Every mode reduces to the same typed job pipeline (internal/job) the
// onocsimd daemon serves, so the tables here and the daemon's response
// payloads are renderings of identical values.
//
// Examples:
//
//	onocsim -mode exec -network optical
//	onocsim -config myexp.json -mode study -network optical
//	onocsim -mode sweep -quick
//	onocsim -mode sweep -sweep grid.json -format json
//	onocsim -dump-config > baseline.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"onocsim"
	"onocsim/internal/cliutil"
	"onocsim/internal/config"
	"onocsim/internal/job"
	"onocsim/internal/prof"
	"onocsim/internal/sweep"
)

// options carries every flag; run is kept flag-free so tests drive it
// directly.
type options struct {
	cfgPath    string
	network    string
	mode       string
	format     string
	faults     string
	seedMode   string
	dumpConfig bool
	shards     int
	stream     bool
	incr       bool
	window     int
	sweepPath  string
	quick      bool
}

func main() {
	var o options
	flag.StringVar(&o.cfgPath, "config", "", "JSON config file (default: built-in baseline)")
	flag.StringVar(&o.network, "network", "optical", "fabric: electrical | optical | hybrid | ideal")
	flag.StringVar(&o.mode, "mode", "exec", "run mode: exec | study | correct | estimate | sweep")
	flag.StringVar(&o.format, "format", "ascii", "output format: ascii | json")
	flag.StringVar(&o.faults, "faults", "", "optical fault-injection preset: off | light | heavy (default: keep the config file's faults section)")
	flag.BoolVar(&o.dumpConfig, "dump-config", false, "print the effective config as JSON and exit")
	flag.IntVar(&o.shards, "shards", 1, "shard count for replay-family simulations (1: serial, the fastest on every measured workload; 0: one per CPU, capped at the core count; results are identical for any count)")
	flag.BoolVar(&o.stream, "stream", false, "run replay-family simulations on the streaming out-of-core decoder (results are identical)")
	flag.BoolVar(&o.incr, "incremental", false, "resume self-correction rounds from frozen-prefix checkpoints instead of replaying from cycle zero (results are identical; ignored by -stream)")
	flag.IntVar(&o.window, "window", 0, "streaming read-ahead window in events (0: default 64Ki, -1: unbounded)")
	flag.StringVar(&o.seedMode, "seed", "", "self-correction round-0 seeding: zeroload | analytic | fixed (default: keep the config file's sctm.seed)")
	flag.StringVar(&o.sweepPath, "sweep", "", "JSON sweep spec for -mode sweep (default: built-in quick grid)")
	flag.BoolVar(&o.quick, "quick", false, "shrink every sweep arm to the quick problem size (-mode sweep only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err == nil {
		err = run(o)
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "onocsim:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

func run(o options) error {
	if o.format != "ascii" && o.format != "json" {
		return cliutil.Usagef("unknown format %q (want ascii or json)", o.format)
	}
	switch o.mode {
	case "exec", "study", "correct", "estimate":
	case "sweep":
		return runSweep(o)
	default:
		return cliutil.Usagef("unknown mode %q (want exec, study, correct, estimate or sweep)", o.mode)
	}
	switch config.NetworkKind(o.network) {
	case config.NetElectrical, config.NetOptical, config.NetIdeal, config.NetHybrid:
	default:
		return cliutil.Usagef("unknown network %q (want electrical, optical, hybrid, or ideal)", o.network)
	}
	cfg := onocsim.DefaultConfig()
	if o.cfgPath != "" {
		var err error
		cfg, err = onocsim.LoadConfig(o.cfgPath)
		if err != nil {
			return err
		}
	}
	if o.faults != "" {
		f, err := config.FaultPreset(o.faults)
		if err != nil {
			return cliutil.UsageError{Err: err}
		}
		cfg.Faults = f
	}
	if o.seedMode != "" {
		cfg.SCTM.Seed = o.seedMode
	}
	kind := onocsim.NetworkKind(o.network)
	cfg.Network = kind
	// Sharding is byte-identical to serial execution for any count. The
	// default is serial, which beat sharded replay on every measured
	// workload; 0 asks for one shard per CPU, and the replayer itself caps
	// the count at the chip's node count.
	if o.shards == 0 {
		o.shards = runtime.NumCPU()
	}
	cfg.Parallelism.Shards = o.shards
	// Streaming, like sharding, is an execution detail: it changes resident
	// memory, never results, so the flags only select the engine.
	if o.stream {
		cfg.Parallelism.Stream = true
	}
	if o.window != 0 {
		cfg.Parallelism.WindowEvents = o.window
	}
	// Incremental correction, like sharding and streaming, never changes
	// results — it only skips re-simulating each round's frozen prefix.
	if o.incr {
		cfg.SCTM.Incremental = true
	}

	if o.dumpConfig {
		return cfg.Save("/dev/stdout")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	// All four single-run modes are one typed job through the same pipeline
	// the onocsimd service serves; ascii and json are two renderings of the
	// job's table, so the JSON carries the same values (with kinds and
	// units) that the terminal shows.
	runner := &job.Runner{Session: onocsim.NewSession("")}
	res, err := runner.Run(context.Background(), job.Job{Op: job.Op(o.mode), Config: cfg, Kind: kind})
	if err != nil {
		return err
	}
	if o.format == "json" {
		return res.Table.WriteJSON(os.Stdout)
	}
	return res.Table.WriteASCII(os.Stdout)
}

// runSweep expands, prunes and simulates a design grid, printing per-arm
// progress to stderr and the deterministic result tables to stdout.
func runSweep(o options) error {
	spec := config.DefaultSweep()
	spec.Normalize()
	if o.sweepPath != "" {
		var err error
		spec, err = config.LoadSweep(o.sweepPath)
		if err != nil {
			return err
		}
	}
	if o.quick {
		spec.Quick = true
	}
	progress := onocsim.ProgressFunc(func(ev onocsim.ProgressEvent) {
		if ev.Kind == onocsim.ProgressSweepArm {
			fmt.Fprintf(os.Stderr, "onocsim: sweep %-9s %s\n", ev.Op, ev.Sim)
		}
	})
	res, err := sweep.Run(context.Background(), spec, sweep.Options{
		Session:  onocsim.NewSession(""),
		Progress: progress,
	})
	if err != nil {
		return err
	}
	if o.format == "json" {
		return res.WriteJSON(os.Stdout)
	}
	return res.WriteASCII(os.Stdout)
}
