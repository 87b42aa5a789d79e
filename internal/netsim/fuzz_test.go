package netsim

import (
	"testing"
	"time"

	"siteselect/internal/sim"
)

// FuzzFaultSchedule decodes an arbitrary byte string into a fault
// configuration plus a message schedule, runs it to completion twice,
// and checks the fault layer's structural invariants:
//
//   - the simulation always drains — the horizon bounds retransmission,
//     so no fault mix can make RunAll spin forever;
//   - message conservation: deliveries = send attempts (originals plus
//     retransmissions) minus drops of both kinds plus duplicates;
//   - the reliable channel delivers every reliable send exactly once;
//   - the same bytes and seed reproduce the same delivery schedule and
//     the same fault counters, byte for byte.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{0x64, 0x00, 0x00, 0x05, 0x01, 0x0a, 0x14, 0x02, 0x11, 0x22, 0x33, 0x44}, int64(1))
	f.Add([]byte{0x32, 0x32, 0x32, 0x08, 0x00, 0x00, 0x00, 0x01, 0xff, 0x80, 0x40, 0x20, 0x10}, int64(7))
	f.Add([]byte{0x00, 0x64, 0x64, 0x13, 0x02, 0x05, 0x31, 0x09, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}, int64(99))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) < 9 {
			t.Skip("too short to carry a config and a schedule")
		}
		if len(data) > 300 {
			data = data[:300] // bound the schedule so every input drains fast
		}
		sched := data[8:]
		cfg := FaultConfig{
			Seed:              seed,
			DropRate:          float64(data[0]%101) / 100,
			DupRate:           float64(data[1]%101) / 100,
			SpikeRate:         float64(data[2]%101) / 100,
			SpikeLatency:      time.Duration(data[3]%20+1) * time.Millisecond,
			RetransmitTimeout: time.Duration(data[7]%10+1) * time.Millisecond,
			Horizon:           time.Duration(len(sched)+1) * 500 * time.Microsecond,
		}
		if cut := time.Duration(data[6]%50) * time.Millisecond; cut > 0 {
			start := time.Duration(data[5]%50) * time.Millisecond
			cfg.Partitions = []Partition{{Site: SiteID(data[4] % 4), Start: start, End: start + cut}}
		}
		kinds := []Kind{
			KindObjectRequest, KindObjectShip, KindRecall, KindObjectReturn,
			KindClientForward, KindLockReply, KindTxnShip, KindTxnResult,
			KindLoadQuery, KindLoadReply, KindTxnSubmit, KindUserResult,
		}
		run := func() ([]Message, FaultStats) {
			env := sim.NewEnv()
			n := New(env, DefaultConfig())
			n.SetFaults(cfg)
			mb := sim.NewMailbox[Message](env)
			for i, b := range sched {
				at := time.Duration(i) * 500 * time.Microsecond
				k := kinds[int(b)%len(kinds)]
				from, to := SiteID(b%4), SiteID((b>>2)%4)
				env.At(at, func() { n.Send(Message{Kind: k, From: from, To: to}, mb) })
			}
			got := drain(env, mb)
			env.Close()
			return got, n.Faults()
		}
		a, sa := run()
		b, sb := run()
		if sa != sb {
			t.Fatalf("same input, different fault counters: %+v vs %+v", sa, sb)
		}
		if len(a) != len(b) {
			t.Fatalf("same input, different delivery counts: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Kind != b[i].Kind || a[i].SentAt != b[i].SentAt || a[i].DeliveredAt != b[i].DeliveredAt {
				t.Fatalf("same input, delivery %d differs: %+v vs %+v", i, a[i], b[i])
			}
		}
		attempts := int64(len(sched)) + sa.Retransmits
		want := attempts - sa.Dropped - sa.PartitionDrops + sa.Duplicated
		if int64(len(a)) != want {
			t.Fatalf("conservation broken: %d delivered, want %d (attempts=%d stats=%+v)",
				len(a), want, attempts, sa)
		}
		relSent, relGot := 0, 0
		for _, bb := range sched {
			if kinds[int(bb)%len(kinds)].Reliable() {
				relSent++
			}
		}
		for _, m := range a {
			if m.Kind.Reliable() {
				relGot++
			}
		}
		if relGot != relSent {
			t.Fatalf("reliable channel delivered %d of %d sends (want exactly once each)", relGot, relSent)
		}
	})
}
