// Command rtdbsim runs a single simulated system configuration and
// prints the full metric dump: success rates, cache behaviour, object
// response times, message counters, and load-sharing activity.
//
// Usage:
//
//	rtdbsim -system ce|cs|ls [-clients 20] [-updates 0.05]
//	        [-duration 30m] [-warmup 10m] [-seed 1]
//	        [-reps 1] [-parallel 0]
//	        [-window 500ms] [-executors 4] [-no-h1] [-no-h2]
//	        [-no-decomposition] [-no-forward-lists] [-no-downgrade]
//	        [-drop-rate 0] [-dup-rate 0] [-spike-rate 0] [-spike-latency 5ms]
//	        [-partition-site -1] [-partition-at 0] [-partition-duration 0]
//	        [-invariants] [-trace out.json] [-msgtrace 0]
//
// With -reps N > 1 the configuration is replicated N times over seeds
// derived from the master -seed, fanned across a -parallel worker pool
// (0 = GOMAXPROCS), and summarized as mean ± 95% CI instead of the full
// single-run dump.
//
// -trace out.json enables the per-transaction event tracer (cs/ls
// only): the run additionally prints a slack-attribution report for the
// missed transactions — per-component queue / lock-wait / network /
// exec / retry / fanout breakdowns that sum exactly to each
// transaction's lifetime — plus the aggregate miss-cause table, and
// writes the full event timeline as Chrome trace-event JSON loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing, one track per site.
// -msgtrace N instead prints the last N raw LAN messages.
//
// The fault flags drive the deterministic fault-injection layer
// (client-server systems only): per-message drop/duplicate/latency-spike
// lotteries and a timed single-site partition, all derived from the
// master seed so a faulty run is exactly reproducible. -invariants
// attaches the continuous invariant monitor, which re-audits the model
// after every simulation event (slow; meant for debugging).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"siteselect"
	"siteselect/internal/experiment"
	"siteselect/internal/netsim"
	"siteselect/internal/rtdbs"
	"siteselect/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rtdbsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		system    = flag.String("system", "ls", "system to run: ce, ce-occ, cs or ls")
		clients   = flag.Int("clients", 20, "number of client sites")
		updates   = flag.Float64("updates", 0.05, "fraction of accesses that update")
		duration  = flag.Duration("duration", 30*time.Minute, "virtual generation time")
		warmup    = flag.Duration("warmup", 10*time.Minute, "virtual warmup excluded from statistics")
		seed      = flag.Int64("seed", 1, "master random seed")
		reps      = flag.Int("reps", 1, "replications over derived seeds, summarized as mean ± 95% CI")
		parallel  = flag.Int("parallel", 0, "worker pool size for replications (0 = GOMAXPROCS)")
		window    = flag.Duration("window", 500*time.Millisecond, "forward-list collection window (ls)")
		executors = flag.Int("executors", 4, "concurrent executor slots per client")
		noH1      = flag.Bool("no-h1", false, "disable heuristic H1")
		noH2      = flag.Bool("no-h2", false, "disable heuristic H2 / shipping")
		noDec     = flag.Bool("no-decomposition", false, "disable transaction decomposition")
		noFwd     = flag.Bool("no-forward-lists", false, "disable forward lists")
		noDown    = flag.Bool("no-downgrade", false, "disable EL->SL callback downgrades")
		traceOut  = flag.String("trace", "", "trace every transaction; write Chrome trace-event JSON to this file and print the slack-attribution report (cs/ls)")
		msgTraceN = flag.Int("msgtrace", 0, "print the last N LAN messages at the end of the run")

		dropRate  = flag.Float64("drop-rate", 0, "per-message drop probability [0,1]")
		dupRate   = flag.Float64("dup-rate", 0, "per-message duplication probability [0,1]")
		spikeRate = flag.Float64("spike-rate", 0, "per-message latency-spike probability [0,1]")
		spikeLat  = flag.Duration("spike-latency", 5*time.Millisecond, "extra latency added by a spike")
		partSite  = flag.Int("partition-site", -1, "site to cut off the LAN (0 = server, -1 = none)")
		partAt    = flag.Duration("partition-at", 0, "virtual time the partition starts")
		partDur   = flag.Duration("partition-duration", 0, "partition length (0 disables the partition)")
		invar     = flag.Bool("invariants", false, "attach the continuous invariant monitor (slow)")
		scenFile  = flag.String("scenario", "", "run one .rts scenario file (its own system, workload, and seed) and dump the result")
	)
	flag.Parse()

	if *scenFile != "" {
		return runScenario(*scenFile)
	}

	kind, ok := rtdbs.ParseKind(*system)
	if !ok {
		return fmt.Errorf("unknown -system %q (want ce, ce-occ, cs or ls)", *system)
	}
	cfg := siteselect.DefaultConfig(*clients, *updates)
	if kind.Centralized() {
		cfg = siteselect.DefaultCentralizedConfig(*clients, *updates)
	}
	cfg.Duration = *duration
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.CollectionWindow = *window
	cfg.ClientExecutors = *executors
	cfg.UseH1 = !*noH1
	cfg.UseH2 = !*noH2
	cfg.UseDecomposition = !*noDec
	cfg.UseForwardLists = !*noFwd
	cfg.UseDowngrade = !*noDown
	cfg.Faults.DropRate = *dropRate
	cfg.Faults.DupRate = *dupRate
	cfg.Faults.SpikeRate = *spikeRate
	cfg.Faults.SpikeLatency = *spikeLat
	if *partSite >= 0 && *partDur > 0 {
		cfg.Faults.PartitionSite = *partSite
		cfg.Faults.PartitionAt = *partAt
		cfg.Faults.PartitionDuration = *partDur
	}
	cfg.CheckInvariants = *invar

	if *traceOut != "" {
		return runTxnTraced(kind, cfg, *traceOut)
	}
	if *msgTraceN > 0 {
		return runMsgTraced(kind, cfg, *msgTraceN)
	}
	if *reps > 1 {
		return runReplicated(kind, cfg, *reps, *parallel)
	}
	res, err := siteselect.Run(kind, cfg)
	if err != nil {
		return err
	}
	dump(os.Stdout, kind, res)
	return nil
}

// runReplicated runs the configuration reps times over seeds derived
// from the master seed, in parallel, and prints an aggregate summary
// (mean ± 95% CI) instead of the single-run dump.
func runReplicated(kind siteselect.SystemKind, cfg siteselect.Config, reps, parallel int) error {
	opts := experiment.Options{Seed: cfg.Seed, Reps: reps, Parallel: parallel}
	results, err := experiment.RunReps(opts, cfg, func(c siteselect.Config) (*siteselect.Result, error) {
		return siteselect.Run(kind, c)
	})
	if err != nil {
		return err
	}

	var success, resp, hit stats.Sample
	for _, r := range results {
		success.Add(r.SuccessRate())
		resp.Add(r.M.TxnResponse.Mean().Seconds() * 1e3)
		if r.M.CacheAccesses > 0 {
			hit.Add(r.CacheHitRate())
		}
	}

	fmt.Printf("%s — %d clients, %.0f%% updates, %d replications (master seed %d)\n\n",
		kind, cfg.NumClients, cfg.UpdateFraction*100, reps, cfg.Seed)
	for i, r := range results {
		fmt.Printf("  rep %-2d seed %-20d success %6.2f%%  committed %d/%d\n",
			i, r.Config.Seed, r.SuccessRate(), r.M.Committed, r.M.Submitted)
	}
	fmt.Printf("\n  success rate       %6.2f ± %.2f %% (95%% CI)\n", success.Mean(), success.CI95())
	fmt.Printf("  mean txn response  %6.1f ± %.1f ms\n", resp.Mean(), resp.CI95())
	if hit.N() > 0 {
		fmt.Printf("  cache hit rate     %6.2f ± %.2f %%\n", hit.Mean(), hit.CI95())
	}
	return nil
}

// runTxnTraced runs a client-server system with the per-transaction
// tracer on: after the normal dump it prints the slack-attribution
// report (per missed transaction and the aggregate miss-cause table)
// and writes the event timeline as Chrome trace-event JSON.
func runTxnTraced(kind siteselect.SystemKind, cfg siteselect.Config, path string) error {
	cfg.Trace = true
	if kind.Centralized() {
		return fmt.Errorf("-trace requires -system cs or ls (the centralized systems are untraced)")
	}
	sys, err := rtdbs.New(kind, cfg)
	if err != nil {
		return err
	}
	c := sys.(*rtdbs.Cluster)
	res, err := c.Run()
	if err != nil {
		return err
	}
	dump(os.Stdout, kind, res)
	tr := c.Tracer()
	fmt.Println()
	if err := tr.WriteAttribution(os.Stdout, cfg.Warmup, 20); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nChrome trace written to %s (load in Perfetto or chrome://tracing)\n", path)
	return nil
}

// runMsgTraced builds the system directly so a message trace can be
// installed before the run, then prints the tail of the trace ring.
func runMsgTraced(kind siteselect.SystemKind, cfg siteselect.Config, n int) error {
	ring := make([]netsim.Message, 0, n)
	trace := func(m netsim.Message) {
		if len(ring) == n {
			copy(ring, ring[1:])
			ring = ring[:n-1]
		}
		ring = append(ring, m)
	}

	sys, err := rtdbs.New(kind, cfg)
	if err != nil {
		return err
	}
	sys.Net().SetTrace(trace)
	res, err := sys.Run()
	if err != nil {
		return err
	}
	dump(os.Stdout, kind, res)
	fmt.Printf("\nLast %d LAN messages:\n", len(ring))
	for _, m := range ring {
		fmt.Printf("  %-12v %-14v %3d -> %-3d %5dB\n",
			m.SentAt.Round(time.Millisecond), m.Kind, m.From, m.To, m.Size)
	}
	return nil
}

// dump writes the full single-run metric report.
func dump(w io.Writer, kind siteselect.SystemKind, r *siteselect.Result) {
	fmt.Fprintf(w, "%s — %d clients, %.0f%% updates, %v virtual time (seed %d)\n\n",
		kind, r.Config.NumClients, r.Config.UpdateFraction*100, r.Elapsed, r.Config.Seed)

	fmt.Fprintln(w, "Transactions")
	fmt.Fprintf(w, "  submitted            %10d\n", r.M.Submitted)
	fmt.Fprintf(w, "  committed            %10d (%.2f%%)\n", r.M.Committed, r.SuccessRate())
	fmt.Fprintf(w, "  missed               %10d\n", r.M.Missed)
	fmt.Fprintf(w, "  aborted (deadlock)   %10d\n", r.M.Aborted)
	fmt.Fprintf(w, "  mean response        %10v\n", r.M.TxnResponse.Mean().Round(time.Millisecond))
	fmt.Fprintf(w, "  response p50/p95/p99 %10v / %v / %v\n",
		r.M.TxnHisto.P50(), r.M.TxnHisto.P95(), r.M.TxnHisto.P99())

	if r.M.CacheAccesses > 0 {
		fmt.Fprintln(w, "\nClient caching")
		fmt.Fprintf(w, "  accesses             %10d\n", r.M.CacheAccesses)
		fmt.Fprintf(w, "  hit rate             %9.2f%%\n", r.CacheHitRate())
		fmt.Fprintf(w, "  SL response          %10v (n=%d)\n",
			r.M.SharedResponse.Mean().Round(time.Millisecond), r.M.SharedResponse.Count)
		fmt.Fprintf(w, "  EL response          %10v (n=%d)\n",
			r.M.ExclusiveResponse.Mean().Round(time.Millisecond), r.M.ExclusiveResponse.Count)
		fmt.Fprintf(w, "  EL p50/p95/p99       %10v / %v / %v\n",
			r.M.ExclusiveHisto.P50(), r.M.ExclusiveHisto.P95(), r.M.ExclusiveHisto.P99())
		fmt.Fprintf(w, "  refetches            %10d\n", r.M.Refetches)
		fmt.Fprintf(w, "  recalls deferred     %10d\n", r.M.RecallsDeferred)
	}

	if spread := r.ExecSpread(); spread > 0 {
		fmt.Fprintf(w, "  exec spread (CV)     %10.3f\n", spread)
	}

	if r.M.ShippedTxns+r.M.DecomposedTxns+r.MigrationsStarted > 0 {
		fmt.Fprintln(w, "\nLoad sharing")
		ss, sc := r.M.ShippedOutcomes()
		fmt.Fprintf(w, "  transactions shipped %10d (%d committed)\n", ss, sc)
		fmt.Fprintf(w, "  decomposed           %10d (%d subtasks)\n", r.M.DecomposedTxns, r.M.SubtasksRun)
		fmt.Fprintf(w, "  H1 rejections        %10d\n", r.M.H1Rejections)
		fmt.Fprintf(w, "  migrations started   %10d\n", r.MigrationsStarted)
		fmt.Fprintf(w, "  forward hops (c2c)   %10d\n", r.ForwardHops)
	}

	fmt.Fprintln(w, "\nServer")
	fmt.Fprintf(w, "  buffer hit rate      %9.2f%%\n", 100*r.ServerBufferHitRate)
	fmt.Fprintf(w, "  disk reads/writes    %6d / %d\n", r.ServerDiskReads, r.ServerDiskWrites)
	fmt.Fprintf(w, "  recalls sent         %10d\n", r.RecallsSent)
	fmt.Fprintf(w, "  grants shipped       %10d\n", r.GrantsShipped)
	fmt.Fprintf(w, "  denies (late/dlock)  %6d / %d\n", r.DeniesExpired, r.DeniesDeadlock)

	if r.Faults != (netsim.FaultStats{}) || r.Retries > 0 {
		fmt.Fprintln(w, "\nInjected faults")
		fmt.Fprintf(w, "  dropped              %10d\n", r.Faults.Dropped)
		fmt.Fprintf(w, "  partition drops      %10d\n", r.Faults.PartitionDrops)
		fmt.Fprintf(w, "  duplicated           %10d\n", r.Faults.Duplicated)
		fmt.Fprintf(w, "  latency spikes       %10d\n", r.Faults.Spiked)
		fmt.Fprintf(w, "  retransmissions      %10d\n", r.Faults.Retransmits)
		fmt.Fprintf(w, "  client retries       %10d\n", r.Retries)
	}

	fmt.Fprintln(w, "\nNetwork")
	fmt.Fprintf(w, "  total messages       %10d (%d bytes, %.2f%% bus utilization)\n",
		r.TotalMessages, r.TotalBytes, 100*r.NetUtilization)
	kinds := make([]netsim.Kind, 0, len(r.Messages))
	for k := range r.Messages {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		s := r.Messages[k]
		if s.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-20s %10d\n", k, s.Count)
	}
}
