package client

import (
	"testing"
	"time"
	"unsafe"

	"siteselect/internal/netsim"
	"siteselect/internal/proto"
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

// TestFirmRoundBookkeepingZeroAlloc pins a steady-state firm-request
// round at zero allocations, messages included: pending-record checkout
// from the pool, wait and waiter registration, the two firm requests
// sent as pooled records filled in place, the grants delivered through
// the dispatcher — which looks the waits up, clears them, installs the
// copies and hands each grant's record back — and the pending record's
// release.
func TestFirmRoundBookkeepingZeroAlloc(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	c := r.cl
	tx := &txn.Transaction{ID: 201, Deadline: time.Hour}
	m := &txnMachine{c: c, t: tx, missing: []txn.Op{{Obj: 7}, {Obj: 8, Write: true}}}

	// fetch sends the firm request for the access at the cursor and plays
	// the server: receive the request, release its record, ship the
	// grant in another.
	m.sendKind = skSeq
	fetch := func() {
		op := m.missing[m.seqIdx]
		obj, mode := op.Obj, op.Mode()
		m.pt.addWait(obj, mode, 0)
		c.addWaiter(obj, m.pt)
		m.resend(0)
		r.env.RunAll()
		msg, ok := r.toSrv.TryGet()
		if q, isReq := msg.Payload.(*proto.CommitRequest); !ok || !isReq || len(q.Objs) != 1 || q.Objs[0] != obj || q.Txn != tx.ID {
			panic("firm request not sent")
		}
		c.payloads.Release(msg.Payload)
		g := c.payloads.GrantMsg.Get()
		g.Grants = append(g.Grants, proto.ObjGrant{Obj: obj, Mode: mode, Version: 1, Txn: tx.ID})
		r.inject(netsim.KindObjectShip, g)
		r.env.RunAll()
		if m.pt.findWait(obj) >= 0 || c.hasWaiter(obj) {
			panic("grant did not clear the wait")
		}
	}
	round := func() {
		m.pt = c.ensurePending(tx)
		if c.findPending(tx.ID) != m.pt {
			panic("pending record lost")
		}
		for m.seqIdx = range m.missing {
			fetch()
		}
		c.releasePending(m.pt)
	}
	round() // warm the pools and cache the two copies
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("a firm-request round allocates %v per run, want 0", n)
	}
}
