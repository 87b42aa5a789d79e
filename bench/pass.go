package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/rtdbs"
	"siteselect/internal/scenario"
)

// cellRun is what one run of one cell measured.
type cellRun struct {
	spec *cellSpec

	compileS, buildS, runS float64
	steps                  int64
	clients                int
	mallocs, allocBytes    uint64
	liveHeap               int64 // bytes held by the built-and-run system
	gcCycles               uint32
	gcPauseNs              uint64

	res    *rtdbs.Result
	digest string
	// failure is the first reason the cell failed the correctness gate;
	// empty when it passed.
	failure string
}

func (c *cellRun) failf(format string, args ...any) {
	if c.failure == "" {
		c.failure = fmt.Sprintf(format, args...)
	}
}

// pass is one run of every cell of a workload.
type pass struct {
	cells []cellRun
}

// runPass runs the workload's cells one at a time on the calling
// goroutine. rec is nil on timed passes. Host time is read around the
// benchmark's own calls into scenario.Compile, rtdbs.New* and Run;
// memory readings and forced collections sit outside those regions.
func runPass(w *workload, seed int64, smoke bool, rec *recorder) pass {
	p := pass{cells: make([]cellRun, len(w.cells))}
	for i := range w.cells {
		p.cells[i].spec = &w.cells[i]
		cs := rec.begin("cell:" + w.cells[i].name)
		p.cells[i].run(seed, smoke, rec)
		rec.end(cs)
	}
	if w.check != nil && !smoke {
		w.check(seed, p.cells)
	}
	return p
}

// settledHeap collects twice and reads the memory statistics. Once is
// not enough to make HeapAlloc repeat: internal/rng parks generator
// state in a sync.Pool, and a pool's contents survive one collection in
// its victim cache — up to 5 KB a client, depending on when the run's own
// collections happened to fall.
func settledHeap(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

func (c *cellRun) run(seed int64, smoke bool, rec *recorder) {
	var before, after runtime.MemStats
	settledHeap(&before)

	sp := rec.begin("compile")
	t := time.Now()
	comp, err := c.spec.compile(seed, smoke)
	c.compileS = time.Since(t).Seconds()
	rec.end(sp)
	if err != nil {
		c.failf("compile: %v", err)
		return
	}
	c.clients = comp.cfg.NumClients

	sp = rec.begin("build")
	t = time.Now()
	sys, err := build(comp.system, comp.cfg)
	c.buildS = time.Since(t).Seconds()
	rec.end(sp)
	if err != nil {
		c.failf("build: %v", err)
		return
	}

	sp = rec.begin("run")
	t = time.Now()
	res, err := runRecovered(sys)
	c.runS = time.Since(t).Seconds()
	rec.end(sp)

	runtime.ReadMemStats(&after)
	c.mallocs = after.Mallocs - before.Mallocs
	c.allocBytes = after.TotalAlloc - before.TotalAlloc
	c.gcCycles = after.NumGC - before.NumGC
	c.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	c.steps = sys.Env().Steps()
	settledHeap(&after)
	c.liveHeap = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(sys)

	c.res = res
	if err != nil {
		c.failf("run: %v", err)
	}
	if res == nil {
		return
	}
	c.digest = digest(res, c.steps)
	if m := res.M; m.Submitted != m.Committed+m.Missed+m.Aborted {
		c.failf("conservation: submitted %d != committed %d + missed %d + aborted %d",
			m.Submitted, m.Committed, m.Missed, m.Aborted)
	}
	if res.M.Submitted == 0 && !smoke {
		c.failf("empty run: no transaction submitted")
	}
	for _, ex := range comp.expects {
		if msg := checkExpect(res, ex); msg != "" {
			c.failf("%s", msg)
		}
	}
}

// runRecovered reports a panic inside the simulator as the cell's
// error, so that one broken cell is counted as failed and the others
// still run.
func runRecovered(sys system) (res *rtdbs.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return sys.Run()
}

// digest hashes the simulated outcome of a cell. Every field is a pure
// function of the cell's config, so two passes, and two commits that
// claim to change only the simulator's speed, must agree on it.
func digest(res *rtdbs.Result, steps int64) string {
	h := sha256.New()
	m := res.M
	fmt.Fprintln(h, steps, res.Elapsed, m.Submitted, m.Committed, m.Missed, m.Aborted,
		m.ShippedTxns, m.DecomposedTxns, m.SubtasksRun, m.H1Rejections,
		m.CacheAccesses, m.CacheHits, m.RecallsDeferred, m.Refetches,
		m.TxnResponse, m.SharedResponse, m.ExclusiveResponse,
		m.TxnHisto.P50(), m.TxnHisto.P99(),
		res.TotalMessages, res.TotalBytes, res.NetUtilization,
		res.ServerBufferHitRate, res.ServerDiskReads, res.ServerDiskWrites,
		res.RecallsSent, res.GrantsShipped, res.MigrationsStarted, res.ForwardHops,
		res.DeniesExpired, res.DeniesDeadlock, res.BatchFlushes, res.BatchedRequests,
		res.ReplicasInstalled, res.ReplicasShed, res.RequestsForwarded,
		res.Faults, res.Retries)
	kinds := make([]int, 0, len(res.Messages))
	for k := range res.Messages {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		st := res.Messages[netsim.Kind(k)]
		fmt.Fprintln(h, k, st.Count, st.Bytes)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// checkExpect evaluates one .rts assertion and returns a message when
// it does not hold. scenario.Run has the repository's evaluator, but it
// compiles, builds and runs in one call, which the benchmark must time
// apart; this covers the metrics the benchmark's own scenarios use and
// rejects any other.
func checkExpect(res *rtdbs.Result, ex scenario.ExpectStanza) string {
	var got float64
	switch ex.Metric {
	case "success_rate":
		got = res.SuccessRate()
	case "submitted":
		got = float64(res.M.Submitted)
	case "retries":
		got = float64(res.Retries)
	case "forward_hops":
		got = float64(res.ForwardHops)
	case "replicas_installed":
		got = float64(res.ReplicasInstalled)
	case "replicas_shed":
		got = float64(res.ReplicasShed)
	case "requests_forwarded":
		got = float64(res.RequestsForwarded)
	case "faults":
		switch ex.Arg {
		case "dropped":
			got = float64(res.Faults.Dropped)
		case "duplicated":
			got = float64(res.Faults.Duplicated)
		default:
			return fmt.Sprintf("expect: faults %s not supported by the benchmark", ex.Arg)
		}
	default:
		return fmt.Sprintf("expect: metric %s not supported by the benchmark", ex.Metric)
	}
	want, _ := ex.Value.AsFloat()
	ok := false
	switch ex.Op {
	case ">=":
		ok = got >= want
	case "<=":
		ok = got <= want
	default:
		return fmt.Sprintf("expect: operator %s not supported by the benchmark", ex.Op)
	}
	if !ok {
		return fmt.Sprintf("expect: %s %s %s %s, got %g", ex.Metric, ex.Arg, ex.Op, ex.Value, got)
	}
	return ""
}

// endToEndValues computes the pass's end-to-end metrics, keyed by name,
// with host seconds scaled by hostFactor. It returns nil when no
// transaction finished, which the gate has already recorded as a
// failure.
func (p *pass) endToEndValues(hostFactor float64) map[string]float64 {
	var setup, wall, liveMax float64
	var txns, committed, msgs int64
	var mallocs, bytes uint64
	var p50, p99 float64
	for i := range p.cells {
		c := &p.cells[i]
		setup += c.compileS + c.buildS
		wall += c.runS
		mallocs += c.mallocs
		bytes += c.allocBytes
		if mb := float64(c.liveHeap) / (1 << 20); mb > liveMax {
			liveMax = mb
		}
		if c.res == nil {
			continue
		}
		txns += c.res.M.Submitted
		committed += c.res.M.Committed
		msgs += c.res.TotalMessages
		if c.spec.quantiles {
			p50 = quantile(&c.res.M.TxnHisto, 0.50)
			p99 = quantile(&c.res.M.TxnHisto, 0.99)
		}
	}
	if txns == 0 || wall == 0 {
		return nil
	}
	setup *= hostFactor
	wall *= hostFactor
	n := float64(txns)
	return map[string]float64{
		"setup_s":          setup,
		"wall_s":           wall,
		"txn_per_s":        n / wall,
		"allocs_per_txn":   float64(mallocs) / n,
		"alloc_kb_per_txn": float64(bytes) / 1024 / n,
		"live_heap_mb":     liveMax,
		"deadline_met_pct": 100 * float64(committed) / n,
		"msgs_per_txn":     float64(msgs) / n,
		"sim_txn_p50_s":    p50,
		"sim_txn_p99_s":    p99,
	}
}

// quantile estimates the q-quantile of h in seconds. The histogram's
// buckets are a factor of two wide and Quantile answers with a bucket's
// upper bound, so the raw answer never moves or doubles. Its bucket
// counts are still readable from outside — Quantile at rank r crosses a
// bound exactly when r passes the count below it — so this finds the
// counts either side of the bucket [a, 2a) holding rank q*n and
// interpolates inside it, taking the share of samples still slower than
// t to fall off exponentially across the bucket, as latency tails do.
// (Interpolating the rank log-linearly in t instead moved p99 by 5%
// from seed to seed where this moves it by 2%.)
func quantile(h *metrics.Histogram, q float64) float64 {
	n := float64(h.Count())
	if n == 0 {
		return 0
	}
	at := func(rank int) time.Duration { return h.Quantile((float64(rank) - 0.5) / n) }
	// slower returns how many samples lie at or above bound, never less
	// than half a sample so that its logarithm exists.
	slower := func(bound time.Duration) float64 {
		below := sort.Search(int(n), func(i int) bool { return at(i+1) >= bound })
		return math.Max(n-float64(below), 0.5)
	}
	target := q * n
	upper := at(max(1, int(math.Ceil(target))))
	sa, sb := slower(upper), slower(2*upper)
	frac := (math.Log(sa) - math.Log(n-target)) / (math.Log(sa) - math.Log(sb))
	return upper.Seconds() / 2 * (1 + frac)
}

// simDigest folds the cell digests of a pass into the workload's.
func (p *pass) simDigest() string {
	h := sha256.New()
	for i := range p.cells {
		fmt.Fprintln(h, p.cells[i].spec.name, p.cells[i].digest)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
