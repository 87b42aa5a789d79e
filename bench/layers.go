package main

import (
	"bytes"
	"runtime/pprof"
)

// instrumented is what the traced part of a run gathered, beyond the
// passes themselves.
type instrumented struct {
	rec *recorder
	// firstSpan is where the last instrumented pass's spans start.
	firstSpan int
	stacks    []stack
	drivers   map[string]float64
	// tracedWall and plainWall are wall_s of the instrumented and the
	// untraced passes of this run.
	tracedWall, plainWall []float64
}

// profiledPass runs one pass with the recorder on and a CPU profile the
// benchmark starts and stops itself.
func (in *instrumented) profiledPass(w *workload, seed int64, smoke bool) (pass, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return pass{}, err
	}
	in.firstSpan = len(in.rec.spans)
	sp := in.rec.begin("pass")
	p := runPass(w, seed, smoke, in.rec)
	in.rec.end(sp)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		return p, err
	}
	in.stacks = append(in.stacks, stacks...)
	return p, nil
}

// perLayerValues assembles every per-layer metric from the last
// instrumented pass p: counts off the results, shares off the profile,
// times off the spans, ns/op off the drivers. A metric that does not
// apply to the workload reads 0.
func (in *instrumented) perLayerValues(p *pass, calibNs float64) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}

	var steps int64
	var cacheAcc, cacheHit, batched, mostShips int64
	var runS, busBusy, elapsed, hitWeighted, reads float64
	var liveMax float64
	var liveClients int
	stepRate := map[string]float64{}
	for i := range p.cells {
		c := &p.cells[i]
		steps += c.steps
		runS += c.runS
		v["runtime.gc_cycles"] += float64(c.gcCycles)
		v["runtime.gc_pause_ms"] += float64(c.gcPauseNs) / 1e6
		if float64(c.liveHeap) > liveMax {
			liveMax, liveClients = float64(c.liveHeap), c.clients
		}
		if c.runS > 0 {
			stepRate[c.spec.name] = float64(c.steps) / c.runS
		}
		r := c.res
		if r == nil {
			continue
		}
		cacheAcc += r.M.CacheAccesses
		cacheHit += r.M.CacheHits
		batched += r.BatchedRequests
		v["lockmgr.grants"] += float64(r.GrantsShipped)
		v["lockmgr.recalls"] += float64(r.RecallsSent)
		v["lockmgr.denies"] += float64(r.DeniesExpired + r.DeniesDeadlock)
		v["client.retries"] += float64(r.Retries)
		v["server.batch_flushes"] += float64(r.BatchFlushes)
		v["server.replicas_installed"] += float64(r.ReplicasInstalled)
		v["server.replicas_shed"] += float64(r.ReplicasShed)
		v["server.requests_forwarded"] += float64(r.RequestsForwarded)
		v["forward.hops"] += float64(r.ForwardHops)
		v["forward.migrations"] += float64(r.MigrationsStarted)
		v["loadshare.txn_ships"] += float64(r.M.ShippedTxns)
		if r.M.ShippedTxns > mostShips {
			// The spread load sharing left, in the cell that shared most.
			mostShips = r.M.ShippedTxns
			v["loadshare.exec_spread"] = r.ExecSpread()
		}
		v["netsim.messages"] += float64(r.TotalMessages)
		v["netsim.bytes"] += float64(r.TotalBytes)
		v["netsim.fault_drops"] += float64(r.Faults.Dropped + r.Faults.PartitionDrops)
		busBusy += r.NetUtilization * r.Elapsed.Seconds()
		elapsed += r.Elapsed.Seconds()
		v["pagefile.disk_reads"] += float64(r.ServerDiskReads)
		v["pagefile.disk_writes"] += float64(r.ServerDiskWrites)
		// Weight each cell's buffer hit rate by its disk reads: the
		// result carries the rate, not the access count behind it.
		hitWeighted += r.ServerBufferHitRate * float64(r.ServerDiskReads)
		reads += float64(r.ServerDiskReads)
	}
	v["sim.steps"] = float64(steps)
	if runS > 0 {
		v["sim.steps_per_s"] = float64(steps) / runS
	}
	if steps > 0 {
		v["sim.host_ns_per_step"] = runS * 1e9 / float64(steps)
	}
	if small, large := stepRate["10k"], stepRate["100k"]; small > 0 && large > 0 {
		v["sim.population_falloff"] = small / large
	}
	if cacheAcc > 0 {
		v["client.cache_hit_pct"] = 100 * float64(cacheHit) / float64(cacheAcc)
	}
	if f := v["server.batch_flushes"]; f > 0 {
		v["server.batch_fill"] = float64(batched) / f
	}
	if elapsed > 0 {
		v["netsim.bus_util"] = busBusy / elapsed
	}
	if reads > 0 {
		v["pagefile.buffer_hit_pct"] = 100 * hitWeighted / reads
	}
	if liveClients > 0 {
		v["rtdbs.live_heap_kb_per_client"] = liveMax / 1024 / float64(liveClients)
	}

	shares, samples := cpuShares(in.stacks)
	for bucket, metric := range cpuBuckets {
		v[metric] = shares[bucket]
	}
	v["bench.profile_samples"] = float64(samples)

	v["scenario.compile_s"] = in.rec.total(in.firstSpan, "", "compile").Seconds()
	v["rtdbs.build_s"] = in.rec.total(in.firstSpan, "", "build").Seconds()
	for i := range p.cells {
		c := &p.cells[i]
		v["rtdbs.group_run_s."+c.spec.group] += in.rec.total(in.firstSpan, "cell:"+c.spec.name, "run").Seconds()
	}

	for metric, ns := range in.drivers {
		v[metric] = ns
	}
	v["runtime.peak_rss_mb"] = peakRSSMB()
	v["bench.calib_ns"] = calibNs
	if len(in.plainWall) > 0 && len(in.tracedWall) > 0 {
		plain := median(in.plainWall)
		v["bench.trace_overhead_pct"] = 100 * (median(in.tracedWall) - plain) / plain
	}
	return v
}
