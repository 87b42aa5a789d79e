// Command rtbench regenerates the paper's tables and figures.
//
// Usage:
//
//	rtbench -exp <id> [-scale 0.25] [-seed 1] [-clients 20,40,60,80,100]
//	        [-csv] [-reps N] [-parallel N] [-progress] [-svg dir]
//
// Experiment ids, in the order -exp all runs them (the registry is
// experiment.Studies; TestDocsListEveryStudy holds this list to it):
// fig3 fig4 fig5 table2 table3 table4 protocol patterns occ speculation
// outage batch-sweep shard-sweep faults policies sensitivity
// ablate-heuristics ablate-window ablate-downgrade ablate-writethrough
// ablate-logging.
//
// -scale shrinks the virtual run length (1 = the full 30-minute runs);
// the shapes survive scaling but small counters get noisier.
//
// -trace-summary re-runs a figure's CS/LS cells with per-transaction
// tracing enabled and reports the aggregate miss-cause table (missed
// transactions classified by the dominant component of their slack
// attribution) instead of the success-rate figure. Only the figures
// have one: with another single id it is an error, and -exp all runs
// the other experiments as usual.
//
// -cpuprofile and -memprofile write pprof profiles covering the
// experiment or scenario run, for hunting simulator hot spots (see
// DESIGN.md "Kernel internals and performance").
//
// Every experiment fans its simulation cells across a worker pool of
// -parallel goroutines (default: GOMAXPROCS). Each cell's seed is
// derived from the master -seed and the cell's coordinates, so results
// are bit-identical for any -parallel value. -reps replicates every
// cell over derived seeds and reports mean ± 95% CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"siteselect/internal/experiment"
	"siteselect/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		os.Exit(1)
	}
}

// params carries the parsed command line into runExperiments, keeping
// the experiment dispatch testable without flag globals.
type params struct {
	exp          string
	csv          bool
	svgDir       string
	ablateN      int
	ablateU      float64
	traceSummary bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtbench", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id ("+strings.Join(studyIDs(), ", ")+", all)")
		scale    = fs.Float64("scale", 1.0, "run-length scale factor in (0,1]")
		seed     = fs.Int64("seed", 1, "master random seed (per-cell seeds are derived from it)")
		clients  = fs.String("clients", "", "comma-separated client sweep for figures (default 20,40,60,80,100)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		reps     = fs.Int("reps", 1, "replications per cell over derived seeds, aggregated as mean ± 95% CI")
		parallel = fs.Int("parallel", 0, "worker pool size for experiment cells (0 = GOMAXPROCS)")
		progress = fs.Bool("progress", false, "log per-cell completions with wall-clock timing to stderr")
		svgDir   = fs.String("svg", "", "directory to also write figures as SVG charts")
		ablateN  = fs.Int("ablate-clients", 60, "client count for ablations")
		ablateU  = fs.Float64("ablate-updates", 0.20, "update fraction for ablations")
		traceSum = fs.Bool("trace-summary", false, "for figure experiments, re-run the CS/LS cells with tracing enabled and report the aggregate miss-cause table instead of the figure")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
		scenFile = fs.String("scenario", "", "run one .rts scenario file instead of an experiment")
		scenDir  = fs.String("scenario-dir", "", "run every .rts scenario in a directory instead of an experiment")
		scenOut  = fs.String("scenario-out", "", "also write each scenario report to this directory as <name>.golden")
		scenBig  = fs.Bool("scale-scenarios", false, "include scale-tier scenarios (>= 100k clients) in -scenario-dir runs; these take minutes and tens of GB")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits here

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rtbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rtbench: memprofile:", err)
			}
		}()
	}

	if *scenFile != "" || *scenDir != "" {
		// Scenario runs carry their own seed (derived from the scenario
		// name and the file's seed stanza), so -seed, -scale, and -reps
		// do not apply here.
		return runScenarios(*scenFile, *scenDir, *scenOut, *parallel, *scenBig, out)
	}

	opts := experiment.Options{Scale: *scale, Seed: *seed, Reps: *reps, Parallel: *parallel}
	if *clients != "" {
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -clients entry %q", part)
			}
			opts.Clients = append(opts.Clients, n)
		}
	}
	var timing *metrics.WallClock
	var submitted int64
	if *progress {
		timing = &metrics.WallClock{}
		opts.Timing = timing
		opts.Progress = func(c metrics.CellDone) {
			submitted += c.Submitted
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%v)\n", c.Done, c.Total, c.Label, c.Elapsed.Round(time.Millisecond))
		}
	}
	err := runExperiments(params{
		exp: *exp, csv: *csv, svgDir: *svgDir,
		ablateN: *ablateN, ablateU: *ablateU,
		traceSummary: *traceSum,
	}, opts, out)
	if timing != nil {
		s := timing.Stats()
		fmt.Fprintf(os.Stderr, "cells: %d, wall clock mean %v, max %v, total %v, %d transactions submitted\n",
			s.Count, s.Mean().Round(time.Millisecond), s.Max.Round(time.Millisecond),
			s.Total.Round(time.Millisecond), submitted)
	}
	return err
}

// studyIDs lists the registered experiment ids in `-exp all` order.
func studyIDs() []string {
	ids := make([]string, len(experiment.Studies))
	for i, d := range experiment.Studies {
		ids[i] = d.ID
	}
	return ids
}

// runExperiments runs the study registered under p.exp — or, for "all",
// every registered study in order — and writes each table followed by a
// blank line.
func runExperiments(p params, opts experiment.Options, out io.Writer) error {
	ran := false
	for _, def := range experiment.Studies {
		if p.exp != "all" && p.exp != def.ID {
			continue
		}
		ran = true
		study := def.Declare(opts, p.ablateN, p.ablateU)
		switch {
		case p.traceSummary && def.Traced != nil:
			study = def.Traced(opts)
		case p.traceSummary && p.exp != "all":
			var traced []string
			for _, d := range experiment.Studies {
				if d.Traced != nil {
					traced = append(traced, d.ID)
				}
			}
			return fmt.Errorf("-trace-summary: experiment %q has no miss-cause census (%s do)", p.exp, strings.Join(traced, ", "))
		}
		t, err := study.Run(opts)
		if err != nil {
			return err
		}
		if p.csv {
			t.CSV(out)
		} else {
			t.Render(out)
		}
		if chart := t.Chart(); chart != nil && p.svgDir != "" {
			path := filepath.Join(p.svgDir, strings.ToLower(strings.ReplaceAll(t.Name, " ", ""))+".svg")
			fh, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := chart.SVG(fh); err != nil {
				fh.Close()
				return err
			}
			if err := fh.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
		fmt.Fprintln(out)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s, or all)", p.exp, strings.Join(studyIDs(), ", "))
	}
	return nil
}
