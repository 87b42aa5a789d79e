package rtdbs

import (
	"testing"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
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
	cfg := config.DefaultCentralized(20, 0.5)
	cfg.Pattern = config.PatternHotCold
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
// transaction machine acquires is still held: thread slots, the CPU,
// buffer pins, and the machines themselves (only the dispatcher and one
// result drain per terminal stay live once submission has stopped).
func checkUnwound(t *testing.T, core *ceCore) {
	t.Helper()
	core.Start()
	env := core.env
	env.Run(core.cfg.Duration + core.cfg.Drain)
	pending := func() (n int) {
		for k := range core.terminals {
			for _, x := range core.terminals[k].tracked {
				if !x.Terminal() {
					n++
				}
			}
		}
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
	if n := core.slots.InUse(); n != 0 {
		t.Errorf("%d thread slots still held", n)
	}
	if n := core.cpu.InUse(); n != 0 {
		t.Errorf("CPU still held (%d)", n)
	}
	if n := core.pool.Pinned(); n != 0 {
		t.Errorf("%d buffer frames still pinned", n)
	}
	if got, want := env.Machines(), 1+len(core.terminals); got != want {
		t.Errorf("%d machines live, want %d (dispatcher + one drain per terminal)", got, want)
	}
	env.Close()
}

// submitted counts every transaction the terminals sent.
func submitted(core *ceCore) (n int64) {
	for k := range core.terminals {
		n += int64(len(core.terminals[k].tracked))
	}
	return n
}

func TestCentralizedUnwind(t *testing.T) {
	var timedOut, deadlocked int64
	for _, tc := range unwindCases {
		t.Run(tc.name, func(t *testing.T) {
			ce, err := NewCentralized(unwindConfig(tc.tune))
			if err != nil {
				t.Fatal(err)
			}
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
				timedOut = submitted(&ce.ceCore) - ce.slots.Grants
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
			checkUnwound(t, &ce.ceCore)
			noSlot := submitted(&ce.ceCore) - ce.slots.Grants
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
