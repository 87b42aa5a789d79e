package rtdbs

import (
	"testing"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/sim"
	"siteselect/internal/sim/simtest"
	"siteselect/internal/txn"
)

// unwindCases are small overloaded operating points, each built to push
// transactions down one family of bail paths in the centralized
// transaction machines (which release what they hold explicitly, with
// no defer to fall back on).
var unwindCases = []struct {
	name string
	tune func(*config.Config)
}{
	// Two thread slots for twenty terminals: admission times out.
	{"slot-timeout", func(c *config.Config) { c.ServerThreads = 2 }},
	// Each access holds the one CPU for 60 ms: transactions time out
	// queued for it with pages already pinned.
	{"cpu-timeout", func(c *config.Config) { c.ServerOpCPU = 60 * time.Millisecond }},
	// A slow disk and no CPU charge: deadlines pass between page reads,
	// and after compute.
	{"slow-disk", func(c *config.Config) {
		c.ServerOpCPU = 0
		c.DiskRead, c.DiskWrite = 100*time.Millisecond, 100*time.Millisecond
	}},
	// Everything cheap and a twenty-page hot region, so transactions
	// reach validation (OCC: conflicts, restarts, refused restarts) and
	// lock waits (2PL: deadline expiry, deadlock refusal) instead of
	// dying earlier.
	{"contention", func(c *config.Config) {
		c.HotRegionSize = 20
		c.ServerOpCPU = time.Millisecond
		c.DiskRead, c.DiskWrite = time.Millisecond, time.Millisecond
	}},
}

func unwindConfig(tune func(*config.Config)) config.Config {
	cfg := CE.Default(20, 0.5)
	cfg.Pattern = config.AccessHotCold
	cfg.HotRegionSize = 150
	cfg.LocalFraction = 0.9
	// The pool must cover ServerThreads transactions each pinning its
	// whole access set, or they deadlock waiting on each other's frames;
	// 80 frames is still smaller than the hot region, so reads evict.
	cfg.MeanObjects = 4
	cfg.ServerThreads = 6
	cfg.ServerMemory = 80
	cfg.MeanInterArrival = 4 * time.Second
	cfg.MeanLength = 2 * time.Second
	cfg.MeanSlack = 2 * time.Second
	cfg.UseLogging = true
	cfg.Duration = 4 * time.Minute
	cfg.Warmup = 0
	cfg.Drain = 30 * time.Second
	cfg.Seed = 3
	tune(&cfg)
	return cfg
}

// checkUnwound starts the engine around core, runs it until every
// submitted transaction is terminal, and asserts that nothing a
// transaction machine acquires is still held: thread slots, the CPU and
// buffer pins. A machine parked for good leaves its transaction short
// of terminal, which the run loop reports.
func checkUnwound(t *testing.T, core *ceCore) {
	t.Helper()
	core.Start()
	env := core.env
	env.Run(core.cfg.Duration + core.cfg.Drain)
	pending := func() (n int) {
		core.eachInFlight(func(x *txn.Transaction) {
			if !x.Terminal() {
				n++
			}
		})
		return n
	}
	for i := 0; pending() > 0; i++ {
		if i == 100 {
			t.Fatalf("%d transactions never became terminal", pending())
		}
		env.Run(env.Now() + time.Minute)
	}
	res := core.collect()
	if res.M.Committed == 0 || res.M.Missed == 0 {
		t.Fatalf("committed=%d missed=%d: the case must exercise both outcomes", res.M.Committed, res.M.Missed)
	}
	if n := held(env, core.slots, core.cfg.ServerThreads); n != 0 {
		t.Errorf("%d thread slots still held", n)
	}
	if n := held(env, core.cpu, 1); n != 0 {
		t.Errorf("CPU still held (%d)", n)
	}
	if n := core.pool.Pinned(); n != 0 {
		t.Errorf("%d buffer frames still pinned", n)
	}
	env.Close()
}

// held counts the units of r, of the given capacity, that a probe
// machine cannot take at once: the units somebody else still holds.
func held(env *sim.Env, r *sim.Resource, capacity int) (n int) {
	simtest.Spawn(env, func(t *sim.Task) bool {
		got := 0
		for got < capacity && t.AcquireTimeout(r, 0, 0) == sim.AcquireGranted {
			got++
		}
		n = capacity - got
		for ; got > 0; got-- {
			r.Release()
		}
		return true
	})
	env.Run(env.Now())
	return n
}

// watchAdmissions counts, from core's next step on, the transactions
// admitted to a thread slot and, as they are retired, those the
// terminals sent: an admitted transaction is Running at the end of a
// step, since every path after admission parks before it finishes,
// unless a deadlock refusal aborts it at once — and then it is retired
// aborted.
func watchAdmissions(core *ceCore) (admitted, submitted *int64) {
	admitted, submitted = new(int64), new(int64)
	running := map[*txn.Transaction]bool{}
	watchLists(core.env, core.eachInFlight, func(x *txn.Transaction) {
		if x.Status == txn.StatusRunning && !running[x] {
			running[x] = true
			*admitted++
		}
	}, func(x *txn.Transaction) {
		*submitted++
		if x.Status == txn.StatusAborted && !running[x] {
			*admitted++
		}
		delete(running, x)
	})
	return admitted, submitted
}

func TestCentralizedUnwind(t *testing.T) {
	var timedOut, deadlocked int64
	for _, tc := range unwindCases {
		t.Run(tc.name, func(t *testing.T) {
			ce, err := NewCentralized(unwindConfig(tc.tune))
			if err != nil {
				t.Fatal(err)
			}
			admitted, submitted := watchAdmissions(&ce.ceCore)
			checkUnwound(t, &ce.ceCore)
			if err := ce.locks.Audit(); err != nil {
				t.Error(err)
			}
			for obj := 0; obj < ce.cfg.DBSize; obj++ {
				if h := ce.locks.HolderCount(lockmgr.ObjectID(obj)); h != 0 {
					t.Fatalf("object %d still has %d holders", obj, h)
				}
			}
			if tc.name == "slot-timeout" {
				timedOut = *submitted - *admitted
			}
			deadlocked += ce.m.Aborted
		})
	}
	if timedOut <= 0 {
		t.Errorf("slot-timeout case timed out %d admissions", timedOut)
	}
	if deadlocked == 0 {
		t.Error("no case hit a deadlock refusal")
	}
}

func TestCentralizedOCCUnwind(t *testing.T) {
	for _, tc := range unwindCases {
		t.Run(tc.name, func(t *testing.T) {
			ce, err := NewCentralizedOCC(unwindConfig(tc.tune))
			if err != nil {
				t.Fatal(err)
			}
			admitted, submitted := watchAdmissions(&ce.ceCore)
			checkUnwound(t, &ce.ceCore)
			noSlot := *submitted - *admitted
			refused := ce.valid.Conflicts - ce.Restarts
			bailed := ce.m.Missed - noSlot - refused
			t.Logf("no-slot=%d bailed=%d conflicts=%d restarts=%d refused=%d",
				noSlot, bailed, ce.valid.Conflicts, ce.Restarts, refused)
			switch tc.name {
			case "slot-timeout":
				if noSlot <= 0 {
					t.Error("no admission timed out")
				}
			case "cpu-timeout", "slow-disk":
				if bailed <= 0 {
					t.Error("no transaction bailed mid-attempt")
				}
			case "contention":
				if ce.Restarts == 0 || refused <= 0 {
					t.Errorf("restarts=%d refused=%d, want both", ce.Restarts, refused)
				}
			}
		})
	}
}
