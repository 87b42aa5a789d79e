package rtdbs

import (
	"testing"
	"time"

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
