package main

import (
	"runtime"
	"time"

	"siteselect/internal/batch"
	"siteselect/internal/cache"
	"siteselect/internal/forward"
	"siteselect/internal/loadshare"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/rng"
	"siteselect/internal/sched"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// driver is a timed loop over one layer's public API. It reports
// nanoseconds per operation, which does not depend on the workload: it
// says what a layer costs per call, where the workload's cpu_share says
// how much of the run that layer was.
type driver struct {
	metric string
	ops    int
	// setup builds the state outside the timed region and returns the
	// loop body; the second result, when non-nil, tears the state down.
	setup func() (body func(n int), done func())
}

// driverBatches is how many timed batches each driver runs; the metric
// is their median.
const driverBatches = 5

// sleeper is the smallest sim.Machine: it parks on a timer every time it
// is resumed.
type sleeper struct{ sim.Task }

func (s *sleeper) Resume() { s.Sleep(time.Microsecond) }

// driverSink keeps driver results live.
var driverSink int

// scheduleStep measures one insert plus one pop on an event heap that
// holds pending events throughout.
func scheduleStep(pending int) func() (func(int), func()) {
	return func() (func(int), func()) {
		env := sim.NewEnv()
		fn := func() {}
		span := time.Duration(pending) * time.Microsecond
		for i := 0; i < pending; i++ {
			env.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		x := uint32(1)
		return func(n int) {
			for i := 0; i < n; i++ {
				x = x*1664525 + 1013904223
				env.Schedule(span*time.Duration(x>>16)/(1<<16), fn)
				env.Step()
			}
		}, nil
	}
}

var drivers = []driver{
	{"sim.schedule_step_ns.small", 200_000, scheduleStep(1_000)},
	{"sim.schedule_step_ns.large", 100_000, scheduleStep(100_000)},
	{"sim.machine_switch_ns", 400_000, func() (func(int), func()) {
		env := sim.NewEnv()
		m := &sleeper{}
		env.Spawn(&m.Task, m)
		return func(n int) {
			for i := 0; i < n; i++ {
				env.Step()
			}
		}, env.Close
	}},
	{"sim.proc_switch_ns", 40_000, func() (func(int), func()) {
		env := sim.NewEnv()
		env.Go("sleeper", func(p *sim.Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
		return func(n int) {
			for i := 0; i < n; i++ {
				env.Step()
			}
		}, env.Close
	}},
	{"rng.next_set_ns", 40_000, func() (func(int), func()) {
		g := rng.NewLocalizedRW(rng.NewStream(1), rng.LocalizedRWConfig{
			DBSize: 10000, ClientIndex: 3, NumClients: 100,
			RegionSize: 500, LocalFraction: 0.75, ZipfTheta: 0.9,
		})
		return func(n int) {
			for i := 0; i < n; i++ {
				driverSink += len(g.NextSet(10))
			}
		}, nil
	}},
	{"rng.stream_wake_ns", 1_000, func() (func(int), func()) {
		seed := int64(0)
		return func(n int) {
			for i := 0; i < n; i++ {
				seed++
				driverSink += rng.NewStream(seed).Intn(1 << 20)
			}
		}, nil
	}},
	{"lockmgr.lock_release_ns", 200_000, func() (func(int), func()) {
		t := lockmgr.NewTable()
		k := 0
		return func(n int) {
			for i := 0; i < n; i++ {
				k++
				obj := lockmgr.ObjectID(k % 512)
				t.Lock(&lockmgr.Request{Obj: obj, Owner: 1, Mode: lockmgr.ModeExclusive, Deadline: time.Duration(k)})
				t.Release(obj, 1)
			}
		}, nil
	}},
	{"lockmgr.contended_ns", 50_000, func() (func(int), func()) {
		t := lockmgr.NewTable()
		k := 0
		return func(n int) {
			for i := 0; i < n; i++ {
				k += 3
				t.Lock(&lockmgr.Request{Obj: 1, Owner: 1, Mode: lockmgr.ModeExclusive, Deadline: time.Duration(k)})
				t.Lock(&lockmgr.Request{Obj: 1, Owner: 2, Mode: lockmgr.ModeShared, Deadline: time.Duration(k + 1)})
				t.Lock(&lockmgr.Request{Obj: 1, Owner: 3, Mode: lockmgr.ModeShared, Deadline: time.Duration(k + 2)})
				t.Release(1, 1)
				t.Release(1, 2)
				t.Release(1, 3)
			}
		}, nil
	}},
	{"lockmgr.conflict_count_ns", 1_000_000, func() (func(int), func()) {
		t := lockmgr.NewTable()
		for owner := lockmgr.OwnerID(1); owner <= 8; owner++ {
			t.Lock(&lockmgr.Request{Obj: 1, Owner: owner, Mode: lockmgr.ModeShared})
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				driverSink += len(t.ConflictingHolders(1, 9, lockmgr.ModeExclusive))
			}
		}, nil
	}},
	{"cache.lookup_insert_ns", 200_000, func() (func(int), func()) {
		c := cache.New(500, 500)
		z := rng.NewZipf(rng.NewStream(1), 0.9, 4000)
		return func(n int) {
			for i := 0; i < n; i++ {
				obj := lockmgr.ObjectID(z.Rank())
				if e, _, _ := c.Lookup(obj); e == nil {
					c.Insert(obj, lockmgr.ModeShared, false, 0)
				}
			}
		}, nil
	}},
	{"batch.add_flush_ns", 200_000, func() (func(int), func()) {
		env := sim.NewEnv()
		s := batch.NewScheduler(env, 100*time.Millisecond, func(batch.Request) batch.Outcome {
			return batch.OutGranted
		})
		k := 0
		// One window of eight requests per flush; the cost is per
		// request.
		return func(n int) {
			for i := 0; i < n; i += 8 {
				for j := 0; j < 8; j++ {
					k++
					s.Add(batch.Request{
						Client: netsim.SiteID(j + 1), Txn: txn.ID(k), Obj: lockmgr.ObjectID(k % 512),
						Mode: lockmgr.ModeShared, Deadline: time.Duration(k%97) * time.Second,
					})
				}
				env.RunAll()
			}
		}, nil
	}},
	{"forward.insert_ns", 400_000, func() (func(int), func()) {
		k := 0
		return func(n int) {
			for i := 0; i < n; i += 16 {
				l := forward.NewList(1)
				for j := 0; j < 16; j++ {
					k++
					l.Insert(forward.Entry{Client: 1, Deadline: time.Duration(k % 101)})
				}
				driverSink += len(l.Entries)
			}
		}, nil
	}},
	{"loadshare.choose_site_ns", 50_000, func() (func(int), func()) {
		conflicts := []proto.ObjConflict{
			{Obj: 1, Holders: []netsim.SiteID{2, 3}},
			{Obj: 2, Holders: []netsim.SiteID{3}},
			{Obj: 3, Holders: []netsim.SiteID{4, 5, 6}},
		}
		loads := map[netsim.SiteID]proto.LoadReport{
			2: {Client: 2, QueueLen: 1, ATL: time.Second, Valid: true},
			3: {Client: 3, QueueLen: 0, ATL: time.Second, Valid: true},
			4: {Client: 4, QueueLen: 3, ATL: 2 * time.Second, Valid: true},
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				d := loadshare.ChooseSite(loadshare.Params{
					Origin: 1, Now: time.Second, Deadline: time.Minute,
					Conflicts: conflicts, Locations: conflicts, Loads: loads,
					OriginQueueLen: 2, OriginATL: time.Second, Executors: 4,
					RequireImprovement: true,
				})
				driverSink += int(d.Target)
			}
		}, nil
	}},
	{"sched.edf_push_pop_ns", 200_000, func() (func(int), func()) {
		q := sched.NewEDFQueue()
		// Popped transactions are pushed again, so the loop times the
		// queue and not the allocator.
		var free []*txn.Transaction
		k := 0
		return func(n int) {
			for i := 0; i < n; i++ {
				k++
				t := &txn.Transaction{}
				if last := len(free) - 1; last >= 0 {
					t, free = free[last], free[:last]
				}
				t.ID, t.Deadline = txn.ID(k), time.Duration(k%997)
				q.Push(t)
				if q.Len() > 64 {
					free = append(free, q.Pop())
				}
			}
		}, nil
	}},
	{"netsim.send_deliver_ns", 400_000, func() (func(int), func()) {
		env := sim.NewEnv()
		net := netsim.New(env, netsim.DefaultConfig())
		mb := sim.NewMailbox[netsim.Message](env)
		msg := netsim.Message{Kind: netsim.KindObjectRequest, From: 1, To: 0, Size: 128}
		return func(n int) {
			for i := 0; i < n; i++ {
				net.Send(msg, mb)
				env.Step()
				mb.TryGet()
			}
		}, nil
	}},
}

// runDrivers runs every driver and returns ns/op by metric name. Each
// timed batch is a span named driver.<metric>.
func runDrivers(rec *recorder, smoke bool) map[string]float64 {
	out := make(map[string]float64, len(drivers)+1)
	for _, d := range drivers {
		ops := d.ops
		if smoke {
			ops /= 20
		}
		body, done := d.setup()
		body(ops / 4) // warm caches, pools and free lists
		per := make([]float64, driverBatches)
		for b := range per {
			sp := rec.begin("driver." + d.metric)
			t := time.Now()
			body(ops)
			per[b] = float64(time.Since(t).Nanoseconds()) / float64(ops)
			rec.end(sp)
		}
		if done != nil {
			done()
		}
		out[d.metric] = median(per)
	}
	out["rng.stream_bytes"] = streamBytes()
	return out
}

// streamBytes measures the heap a live (drawn-from, unparked) random
// stream holds, as the heap growth across a thousand of them.
func streamBytes() float64 {
	const n = 1000
	var before, after runtime.MemStats
	streams := make([]*rng.Stream, n)
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range streams {
		streams[i] = rng.NewStream(int64(i + 1))
		driverSink += streams[i].Intn(1 << 20)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(streams)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
}
