package rtdbs

import (
	"fmt"
	"testing"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
)

// TestMonitorNamesLowestPlantedViolation plants the same violation — a
// dirty copy held under a shared lock — on three objects of one client's
// cache, in the middle of a monitored run. The monitor walks the caches
// in place, in map order, and must still stop at the planting event with
// the report it always gave for it: the step, the virtual time, and the
// lowest-numbered of the three objects — on every one of a number of
// identical runs, and again from the end-of-run audit.
func TestMonitorNamesLowestPlantedViolation(t *testing.T) {
	const (
		wantMonitor = `invariant "dirty-implies-exclusive" violated at step 2203 (t=1m0s): rtdbs: client 3 caches dirty object 9040 with SL`
		wantAudit   = `rtdbs: client 3 caches dirty object 9040 with SL`
	)
	for run := 0; run < 10; run++ {
		c, err := NewLoadSharing(faultyConfig(6, 0.2))
		if err != nil {
			t.Fatal(err)
		}
		mon, _ := c.monitor()
		mon.Attach()
		victim := &c.clients[2]
		c.Env().At(time.Minute, func() {
			// Objects of the far end of the database, which nobody caches.
			for _, obj := range []lockmgr.ObjectID{9070, 9040, 9090} {
				if victim.Cache().Peek(obj) != nil {
					t.Errorf("object %d already cached; pick another", obj)
				}
				victim.Cache().Insert(obj, lockmgr.ModeShared, true, 1)
			}
		})
		c.Start()
		c.Env().Run(2 * time.Minute)
		if err := mon.Final(); err == nil || err.Error() != wantMonitor {
			t.Fatalf("run %d: Final = %v, want the recorded violation", run, err)
		}
		if err := c.Audit(); err == nil || err.Error() != wantAudit {
			t.Fatalf("run %d: Audit = %v, want %q", run, err, wantAudit)
		}
		c.Env().Close()
	}
}

// checkBothWays runs cfg's load-sharing cluster with its invariant
// checks evaluated two ways after every event, through one step hook:
// as the monitor runs them, over what the event touched, and each as a
// sweep of the whole model (Check.Full). It returns the number of events
// checked, the first violation the two reported alike ("" for none: a
// violation ends the comparison, as it ends the monitor's checking), and
// an error naming the first event after which their verdicts differ.
func checkBothWays(cfg config.Config) (steps int64, violation string, err error) {
	c, err := NewLoadSharing(cfg)
	if err != nil {
		return 0, "", err
	}
	c.monitor() // the model reports to the monitor's list; its hook stays off
	checks := c.checks()
	verdict := func(name string, fn func() error) string {
		if err := fn(); err != nil {
			return fmt.Sprintf("invariant %q: %v", name, err)
		}
		return ""
	}
	done := false
	c.env.SetStepHook(func() {
		if !done {
			steps++
			var full, step string // each suite's first violation
			for _, ch := range checks {
				f := verdict(ch.Name, ch.Fn)
				s := f
				if ch.Full != nil {
					f = verdict(ch.Name, ch.Full)
				}
				if full == "" {
					full = f
				}
				if step == "" {
					step = s
				}
			}
			switch {
			case full != step:
				err = fmt.Errorf("step %d (t=%v): full sweep %q, per-event checks %q", c.env.Steps(), c.env.Now(), full, step)
				done = true
			case full != "":
				violation, done = full, true
			}
		}
		*c.touched = (*c.touched)[:0]
	})
	c.Start()
	c.env.Run(cfg.Duration + cfg.Drain)
	c.env.Close()
	return steps, violation, err
}

// plantAt runs faultyConfig(6, 0.2) under the monitor for two minutes,
// calling plant at the events scheduled at the given times, and returns
// the step of the last planting event, the cluster (closed), whose full
// sweeps the caller reads, and the monitor's verdict.
func plantAt(t *testing.T, plant func(c *Cluster, i int), at ...time.Duration) (int64, *Cluster, error) {
	t.Helper()
	c, err := NewLoadSharing(faultyConfig(6, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := c.monitor()
	mon.Attach()
	var step int64
	for i, when := range at {
		c.Env().At(when, func() {
			plant(c, i)
			step = c.Env().Steps()
		})
	}
	c.Start()
	c.Env().Run(2 * time.Minute)
	err = mon.Final()
	c.Env().Close()
	return step, c, err
}

// TestMonitorCatchesPlantedHolders plants an incompatible holder pair —
// two owners nobody else is, one in EL and one in SL — on an object of
// the far end of the database, which nobody locks, in one event. The
// monitor must stop at that event with the message the full sweep of
// the lock table gives for it.
func TestMonitorCatchesPlantedHolders(t *testing.T) {
	const obj = lockmgr.ObjectID(9070)
	step, c, err := plantAt(t, func(c *Cluster, _ int) {
		locks := c.servers[0].Locks()
		if locks.HolderCount(obj) != 0 {
			t.Errorf("object %d already locked; pick another", obj)
		}
		locks.PlantHolder(obj, 1001, lockmgr.ModeExclusive)
		locks.PlantHolder(obj, 1002, lockmgr.ModeShared)
	}, time.Minute)
	sweep := c.servers[0].AuditLocks()
	if sweep == nil {
		t.Fatal("the full sweep finds nothing wrong with the planted holders")
	}
	want := fmt.Sprintf(`invariant "lock-table" violated at step %d (t=1m0s): %v`, step, sweep)
	if err == nil || err.Error() != want {
		t.Fatalf("monitor = %v, want %q", err, want)
	}
}

// TestMonitorCatchesDroppedRecall plants a dirty copy held under a shared
// lock beside a parked recall, which excuses it, and at a later event
// takes the recall away unanswered. Nothing about the copy changes at
// that event; the monitor must stop there all the same, with the full
// sweep's message.
func TestMonitorCatchesDroppedRecall(t *testing.T) {
	const obj = lockmgr.ObjectID(9040)
	step, c, err := plantAt(t, func(c *Cluster, i int) {
		victim := &c.clients[2]
		if i == 0 {
			if victim.Cache().Peek(obj) != nil {
				t.Errorf("object %d already cached; pick another", obj)
			}
			victim.PlantRecall(obj, true)
			victim.Cache().Insert(obj, lockmgr.ModeShared, true, 1)
			return
		}
		victim.PlantRecall(obj, false)
	}, time.Minute, time.Minute+time.Second)
	sweep := c.auditDirty()
	if sweep == nil {
		t.Fatal("the full sweep finds nothing wrong with the planted copy")
	}
	want := fmt.Sprintf(`invariant "dirty-implies-exclusive" violated at step %d (t=1m1s): %v`, step, sweep)
	if err == nil || err.Error() != want {
		t.Fatalf("monitor = %v, want %q", err, want)
	}
}

// TestMonitorStepCostIsWhatItTouched pins the per-event checks'
// complexity, not their time: an event that touched nothing looks up no
// lock entry and no cached copy, and an event that touched one object at
// a shard and one at a client looks up one of each — the same at 1 000
// objects as at 10 000, however full the tables and caches are.
func TestMonitorStepCostIsWhatItTouched(t *testing.T) {
	var got []string
	for _, n := range []int{1000, 10000} {
		cfg := faultyConfig(6, 0.2)
		cfg.DBSize = n
		c, err := NewLoadSharing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mon, _ := c.monitor()
		mon.Attach()
		locks := c.servers[0].Locks()
		lock := func(obj lockmgr.ObjectID) {
			locks.Lock(&lockmgr.Request{Obj: obj, Owner: lockmgr.OwnerID(obj) + 1000, Mode: lockmgr.ModeShared})
		}
		var visits []string
		c.env.At(time.Millisecond, func() { // fill the model: a tenth of it locked, every cache full
			for obj := 0; obj < n; obj += 10 {
				lock(lockmgr.ObjectID(obj))
			}
			for i := range c.clients {
				for k := 0; k < cfg.ClientMemory; k++ {
					c.clients[i].Cache().Insert(lockmgr.ObjectID(k), lockmgr.ModeShared, false, 0)
				}
			}
		})
		c.env.At(2*time.Millisecond, func() {})
		c.env.At(3*time.Millisecond, func() {
			lock(lockmgr.ObjectID(n - 1))
			c.clients[0].Cache().Insert(lockmgr.ObjectID(n-1), lockmgr.ModeShared, false, 0)
		})
		for step := 1; step <= 3; step++ {
			before := c.visits
			c.env.Step()
			visits = append(visits, fmt.Sprintf("%d/%d", c.visits.locks-before.locks, c.visits.caches-before.caches))
		}
		if err := mon.Final(); err != nil {
			t.Fatal(err)
		}
		c.env.Close()
		if visits[1] != "0/0" || visits[2] != "1/1" {
			t.Errorf("DBSize %d: lock/cache visits after a quiet event %s, after a one-object event %s; want 0/0 and 1/1",
				n, visits[1], visits[2])
		}
		got = append(got, fmt.Sprint(visits[1:]))
	}
	if got[0] != got[1] {
		t.Errorf("per-event visits %s at 1 000 objects, %s at 10 000", got[0], got[1])
	}
}
