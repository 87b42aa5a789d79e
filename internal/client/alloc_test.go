package client

import (
	"testing"
	"unsafe"

	"siteselect/internal/lockmgr"
	"siteselect/internal/txn"
)

// TestPerSiteStructSizes pins what one parked client weighs in structs
// of this package: at a million clients every word here is 8 MB. The
// Client ceiling is what keeps a by-value config.Config (424 B) from
// coming back; the dispatcher's is what keeps a held netsim.Message
// out of a machine every client owns.
func TestPerSiteStructSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, ceil uintptr
	}{
		{"Client", unsafe.Sizeof(Client{}), 512},
		{"dispMachine", unsafe.Sizeof(dispMachine{}), 176},
		{"genMachine", unsafe.Sizeof(genMachine{}), 176},
	} {
		if c.got > c.ceil {
			t.Errorf("unsafe.Sizeof(%s) = %d B, ceiling %d B", c.name, c.got, c.ceil)
		}
	}
}

// TestFirmRoundBookkeepingZeroAlloc pins the client's converted
// per-transaction bookkeeping at zero allocations for a steady-state
// firm-request round: pending-record checkout from the pool, wait and
// waiter registration, the grant-arrival lookups, and release back to
// the pool all run on dense recycled stores. Outbound request payloads
// are excluded — they escape into the network by design.
func TestFirmRoundBookkeepingZeroAlloc(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	c := r.cl
	tx := &txn.Transaction{ID: 201}

	round := func() {
		pt := c.ensurePending(tx)
		pt.addWait(7, lockmgr.ModeShared, 0)
		c.addWaiter(7, pt)
		pt.addWait(8, lockmgr.ModeExclusive, 0)
		c.addWaiter(8, pt)
		// Grants arrive: the handler finds the pending record, clears
		// each wait, and unregisters the waiter.
		if c.findPending(tx.ID) != pt {
			panic("pending record lost")
		}
		if i := pt.findWait(7); i >= 0 {
			pt.removeWait(i)
			c.dropWaiter(7, pt)
		}
		if i := pt.findWait(8); i >= 0 {
			pt.removeWait(i)
			c.dropWaiter(8, pt)
		}
		c.releasePending(pt)
	}
	round() // warm the pool
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("firm-round bookkeeping allocates %v per run, want 0", n)
	}
}
