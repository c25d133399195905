// Command expreport regenerates the reconstructed paper evaluation: every
// table and figure R1–R18 registered in the experiment registry (DESIGN.md
// §3 and §9), rendered as aligned ASCII, CSV, or versioned JSON. The tool
// itself is a thin renderer: experiment identity, cost and wiring live in
// internal/experiments, and every output format is a view of the same typed
// tables.
//
// Examples:
//
//	expreport -list
//	expreport -exp all
//	expreport -exp r1 -cores 64
//	expreport -exp r4 -format csv > r4.csv
//	expreport -exp r1 -format json | jq '.results[0].table'
//	expreport -exp all -quick              # CI-sized sweeps
//	expreport -exp all -parallel -progress # scheduler + live stderr progress
//	expreport -exp all -parallel -cachedir ~/.cache/onocsim
//	expreport -sweep grid.json -quick      # custom design-space sweep
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"onocsim"
	"onocsim/internal/cliutil"
	"onocsim/internal/config"
	"onocsim/internal/experiments"
	"onocsim/internal/metrics"
	"onocsim/internal/prof"
	"onocsim/internal/sweep"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (r1..r20) or 'all'")
		cores      = flag.Int("cores", 64, "core count for kernel experiments")
		seed       = flag.Uint64("seed", 42, "experiment seed")
		quick      = flag.Bool("quick", false, "shrink sweeps (CI-sized)")
		format     = flag.String("format", "ascii", "output format: ascii | csv | json")
		csv        = flag.Bool("csv", false, "emit CSV instead of ASCII (deprecated: use -format csv)")
		list       = flag.Bool("list", false, "list the registered experiments (id, cost, needs, summary) and exit")
		outdir     = flag.String("outdir", "", "also write one CSV file per experiment into this directory")
		parallel   = flag.Bool("parallel", false, "fan experiments out concurrently, deduplicating shared simulations (tables are byte-identical apart from wall-clock cells)")
		cachedir   = flag.String("cachedir", "", "persist captured traces here and reload them across invocations (implies result memoization)")
		shards     = flag.Int("shards", 1, "shard count for replay-family simulations (1: serial, the fastest on every measured workload; 0: one per CPU; tables are identical for any count)")
		incr       = flag.Bool("incremental", false, "resume self-correction rounds from frozen-prefix checkpoints (tables are identical apart from wall-clock and replayed-events cells)")
		faults     = flag.String("faults", "", "run the kernel experiments under this fault preset: off | light | heavy (R18 sweeps all presets regardless)")
		seedMode   = flag.String("seedmode", "", "self-correction round-0 seeding for the kernel experiments: zeroload | analytic | fixed (R19 compares the modes regardless); -seed stays the RNG seed")
		sweepPath  = flag.String("sweep", "", "run a design-space sweep from this JSON spec instead of the registered experiments ('default': the built-in grid)")
		progress   = flag.Bool("progress", false, "stream experiment and simulation progress to stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		verbose    = flag.Bool("v", false, "report cache statistics on stderr")
	)
	flag.Parse()
	if *csv && *format == "ascii" {
		*format = "csv"
	}
	// Sharded replay is byte-identical to serial for any count. The default
	// is serial, which beat sharded replay on every measured workload; 0
	// asks for one shard per CPU.
	if *shards == 0 {
		*shards = runtime.NumCPU()
	}
	opts := experiments.Options{Seed: *seed, Cores: *cores, Quick: *quick, Parallel: *parallel, Shards: *shards, SeedMode: *seedMode, Incremental: *incr}
	if *progress {
		opts.Progress = &progressLogger{w: os.Stderr}
	}
	// One session serves the whole invocation, so every experiment —
	// whether run via -exp all or singly — shares one memo table. The
	// scheduler would create its own; making it here too lets a plain
	// -cachedir (without -parallel) still reuse disk-persisted captures,
	// and gives -v something to report.
	if *parallel || *cachedir != "" {
		opts.Session = onocsim.NewSession(*cachedir)
		if opts.Progress != nil {
			opts.Session.SetProgress(opts.Progress)
		}
	}
	var err error
	opts.Faults, err = config.FaultPreset(*faults)
	if err != nil {
		err = cliutil.UsageError{Err: err}
	} else if *list {
		err = runList(os.Stdout, *format)
	} else {
		var stopProf func() error
		stopProf, err = prof.Start(*cpuprofile, *memprofile)
		if err == nil {
			if *sweepPath != "" {
				err = runSweep(os.Stdout, *sweepPath, opts, *format)
			} else {
				err = run(os.Stdout, *exp, opts, *format, *outdir)
			}
		}
		if perr := stopProf(); err == nil {
			err = perr
		}
	}
	if *verbose && opts.Session != nil {
		st := opts.Session.CacheStats()
		fmt.Fprintf(os.Stderr, "expreport: cache: %d computed, %d hits, %d single-flight waits, %d disk hits, %d disk errors\n",
			st.Misses, st.Hits, st.Waits, st.DiskHits, st.DiskErrors)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "expreport:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

// progressLogger streams progress events as stderr lines. Events arrive from
// many goroutines under -parallel, so each line is written under a mutex.
type progressLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func (p *progressLogger) Event(e onocsim.ProgressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case onocsim.ProgressExperimentStart:
		fmt.Fprintf(p.w, "expreport: %s start — %s\n", e.Experiment, e.Title)
	case onocsim.ProgressExperimentDone:
		if e.Err != nil {
			fmt.Fprintf(p.w, "expreport: %s failed after %s: %v\n", e.Experiment, e.Elapsed.Round(time.Millisecond), e.Err)
		} else {
			fmt.Fprintf(p.w, "expreport: %s done in %s\n", e.Experiment, e.Elapsed.Round(time.Millisecond))
		}
	default:
		fmt.Fprintf(p.w, "expreport: sim %s %s\n", e.Kind, e.Sim)
	}
}

// checkFormat validates the -format value; unknown formats are usage errors
// (exit 2), matching the flag-parse convention.
func checkFormat(format string) error {
	switch format {
	case "ascii", "csv", "json":
		return nil
	}
	return cliutil.Usagef("unknown format %q (want ascii, csv, or json)", format)
}

// writeTable renders one table in the selected format. JSON output goes
// through the results document so single-experiment and all runs share one
// shape; this helper serves the ascii/csv paths.
func writeTable(w io.Writer, t *metrics.Table, format string) error {
	if format == "csv" {
		return t.WriteCSV(w)
	}
	return t.WriteASCII(w)
}

// resultsDoc is the versioned document emitted by -format json: the table
// format version and one entry per experiment, in the order they ran.
type resultsDoc struct {
	Version int           `json:"version"`
	Results []resultEntry `json:"results"`
}

type resultEntry struct {
	ID    string         `json:"id"`
	Table *metrics.Table `json:"table"`
}

// writeJSONDoc emits the versioned results document.
func writeJSONDoc(w io.Writer, ids []string, tables []*metrics.Table) error {
	doc := resultsDoc{Version: metrics.TableFormatVersion}
	for i, t := range tables {
		doc.Results = append(doc.Results, resultEntry{ID: ids[i], Table: t})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runList renders the experiment registry (the -list view).
func runList(w io.Writer, format string) error {
	if err := checkFormat(format); err != nil {
		return err
	}
	t := metrics.NewTable("Registered experiments", "id", "cost", "needs", "summary")
	for _, d := range experiments.Registry() {
		needs := make([]string, len(d.Needs))
		for i, n := range d.Needs {
			needs[i] = string(n)
		}
		t.AddCells(
			metrics.String(d.ID),
			metrics.String(string(d.CostClass)),
			metrics.String(strings.Join(needs, ", ")),
			metrics.String(d.Summary),
		)
	}
	if format == "json" {
		return writeJSONDoc(w, []string{"registry"}, []*metrics.Table{t})
	}
	return writeTable(w, t, format)
}

// runSweep drives the design-space sweep pipeline (internal/sweep) from a
// spec file — the batch counterpart of a single -exp run. The experiment
// options that make sense for a sweep carry over: -seed and -quick shape the
// spec, -progress streams per-arm phases through the shared progressLogger,
// and -parallel/-cachedir's session (if any) memoizes the arms.
func runSweep(w io.Writer, path string, opts experiments.Options, format string) error {
	if err := checkFormat(format); err != nil {
		return err
	}
	spec := config.DefaultSweep()
	if path != "default" {
		var err error
		spec, err = config.LoadSweep(path)
		if err != nil {
			return err
		}
	}
	spec.Normalize()
	if opts.Seed != 0 {
		spec.Seed = opts.Seed
	}
	if opts.Quick {
		spec.Quick = true
	}
	session := opts.Session
	if session == nil {
		session = onocsim.NewSession("")
	}
	res, err := sweep.Run(context.Background(), spec, sweep.Options{
		Session:  session,
		Progress: opts.Progress,
	})
	if err != nil {
		return err
	}
	switch format {
	case "json":
		return res.WriteJSON(w)
	case "csv":
		if err := res.Summary.WriteCSV(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return res.Front.WriteCSV(w)
	}
	return res.WriteASCII(w)
}

// writeCSVFile saves one experiment table as <outdir>/<id>.csv.
func writeCSVFile(outdir, id string, t *metrics.Table) error {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outdir, id+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(w io.Writer, exp string, opts experiments.Options, format, outdir string) error {
	if err := checkFormat(format); err != nil {
		return err
	}
	if exp != "all" && !experiments.Known(exp) {
		return cliutil.Usagef("unknown experiment %q (want %s, or all)", exp, strings.Join(experiments.Names(), ", "))
	}
	var (
		ids    []string
		tables []*metrics.Table
	)
	if exp == "all" {
		all, err := experiments.All(opts)
		if err != nil {
			return err
		}
		ids, tables = experiments.Names(), all
	} else {
		t, err := experiments.ByName(exp, opts)
		if err != nil {
			return err
		}
		ids, tables = []string{exp}, []*metrics.Table{t}
	}
	if outdir != "" {
		for i, t := range tables {
			if err := writeCSVFile(outdir, ids[i], t); err != nil {
				return err
			}
		}
	}
	if format == "json" {
		return writeJSONDoc(w, ids, tables)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := writeTable(w, t, format); err != nil {
			return err
		}
	}
	return nil
}
