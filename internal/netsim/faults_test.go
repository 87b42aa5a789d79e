package netsim

import (
	"testing"
	"time"

	"siteselect/internal/sim"
)

// drain runs the simulation to completion and returns every message
// delivered into mb, in delivery order.
func drain(env *sim.Env, mb *sim.Mailbox[Message]) []Message {
	env.RunAll()
	var got []Message
	for m, ok := mb.TryGet(); ok; m, ok = mb.TryGet() {
		got = append(got, m)
	}
	return got
}

func TestFaultsZeroConfigIsNoop(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, DefaultConfig())
	n.SetFaults(FaultConfig{Seed: 1}) // all rates zero, no partitions
	if n.faults != nil {
		t.Fatal("zero-rate fault config should leave faults disabled")
	}
}

func TestFaultsDropUnreliableKind(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, DefaultConfig())
	n.SetFaults(FaultConfig{Seed: 42, DropRate: 1})
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindObjectRequest, From: 1, To: 0}, mb)
	got := drain(env, mb)
	if len(got) != 0 {
		t.Fatalf("DropRate=1 delivered %d unreliable messages, want 0", len(got))
	}
	if n.Faults().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Faults().Dropped)
	}
	if n.Stats(KindObjectRequest).Count != 1 {
		t.Fatalf("dropped frame not counted as transmitted")
	}
}

func TestFaultsReliableKindRetransmitsUntilHorizon(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, DefaultConfig())
	// Everything is dropped until the horizon; retransmissions sent after
	// it travel clean, so the grant must arrive exactly once.
	n.SetFaults(FaultConfig{
		Seed:              7,
		DropRate:          1,
		Horizon:           200 * time.Millisecond,
		RetransmitTimeout: 10 * time.Millisecond,
	})
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindObjectShip, From: 0, To: 1, Size: ObjectBytes}, mb)
	got := drain(env, mb)
	if len(got) != 1 {
		t.Fatalf("reliable frame delivered %d times, want exactly 1", len(got))
	}
	if got[0].DeliveredAt < 200*time.Millisecond {
		t.Fatalf("delivered at %v, before the fault horizon", got[0].DeliveredAt)
	}
	if n.Faults().Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

func TestFaultsPartitionBlocksBothDirections(t *testing.T) {
	for _, dir := range []struct {
		name     string
		from, to SiteID
	}{{"outbound", 2, 0}, {"inbound", 0, 2}} {
		t.Run(dir.name, func(t *testing.T) {
			env := sim.NewEnv()
			n := New(env, DefaultConfig())
			n.SetFaults(FaultConfig{
				Seed:       1,
				Partitions: []Partition{{Site: 2, Start: 0, End: 50 * time.Millisecond}},
			})
			mb := sim.NewMailbox[Message](env)
			n.Send(Message{Kind: KindLoadQuery, From: dir.from, To: dir.to}, mb)
			if got := drain(env, mb); len(got) != 0 {
				t.Fatalf("message crossed an active partition")
			}
			if n.Faults().PartitionDrops != 1 {
				t.Fatalf("PartitionDrops = %d, want 1", n.Faults().PartitionDrops)
			}
		})
	}
}

func TestFaultsPartitionHealsForReliableKind(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, DefaultConfig())
	n.SetFaults(FaultConfig{
		Seed:              1,
		Partitions:        []Partition{{Site: 1, Start: 0, End: 30 * time.Millisecond}},
		RetransmitTimeout: 5 * time.Millisecond,
	})
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindRecall, From: 0, To: 1}, mb)
	got := drain(env, mb)
	if len(got) != 1 {
		t.Fatalf("recall delivered %d times across a healing partition, want 1", len(got))
	}
	if got[0].DeliveredAt < 30*time.Millisecond {
		t.Fatalf("delivered at %v, during the partition", got[0].DeliveredAt)
	}
	// A frame unaffected by the partition passes through untouched.
	n.Send(Message{Kind: KindRecall, From: 0, To: 2}, mb)
}

func TestFaultsDuplicateUnreliableKind(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, DefaultConfig())
	n.SetFaults(FaultConfig{Seed: 3, DupRate: 1})
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindLockReply, From: 0, To: 1}, mb)
	got := drain(env, mb)
	if len(got) != 2 {
		t.Fatalf("DupRate=1 delivered %d copies, want 2", len(got))
	}
	if got[1].DeliveredAt <= got[0].DeliveredAt {
		t.Fatal("duplicate copy must trail the original")
	}
	if n.Faults().Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", n.Faults().Duplicated)
	}
}

func TestFaultsReliableKindNeverDuplicated(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, DefaultConfig())
	n.SetFaults(FaultConfig{Seed: 3, DupRate: 1})
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindObjectReturn, From: 1, To: 0}, mb)
	if got := drain(env, mb); len(got) != 1 {
		t.Fatalf("reliable kind delivered %d times under DupRate=1, want 1", len(got))
	}
}

func TestFaultsSpikeDelaysDelivery(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	n := New(env, cfg)
	spike := 25 * time.Millisecond
	n.SetFaults(FaultConfig{Seed: 5, SpikeRate: 1, SpikeLatency: spike})
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindObjectShip, From: 0, To: 1, Size: ObjectBytes}, mb)
	got := drain(env, mb)
	if len(got) != 1 {
		t.Fatalf("spiked frame delivered %d times, want 1", len(got))
	}
	clean := n.TransmitTime(ObjectBytes) + cfg.Latency
	if got[0].DeliveredAt != clean+spike {
		t.Fatalf("spiked delivery at %v, want %v", got[0].DeliveredAt, clean+spike)
	}
	if n.Faults().Spiked != 1 {
		t.Fatalf("Spiked = %d, want 1", n.Faults().Spiked)
	}
}

// TestFaultsDeterministic sends a stream of mixed-kind messages through
// a lossy network twice with the same seed and once with a different
// seed: identical seeds must produce byte-identical delivery schedules,
// and a different seed a different one.
func TestFaultsDeterministic(t *testing.T) {
	run := func(seed int64) ([]Message, FaultStats) {
		env := sim.NewEnv()
		n := New(env, DefaultConfig())
		n.SetFaults(FaultConfig{
			Seed:              seed,
			DropRate:          0.3,
			DupRate:           0.2,
			SpikeRate:         0.2,
			SpikeLatency:      3 * time.Millisecond,
			RetransmitTimeout: 2 * time.Millisecond,
			Partitions:        []Partition{{Site: 2, Start: 10 * time.Millisecond, End: 20 * time.Millisecond}},
		})
		mb := sim.NewMailbox[Message](env)
		kinds := []Kind{KindObjectRequest, KindObjectShip, KindRecall, KindLockReply, KindObjectReturn, KindLoadQuery}
		for i := 0; i < 200; i++ {
			at := time.Duration(i) * 250 * time.Microsecond
			k := kinds[i%len(kinds)]
			from, to := SiteID(1+i%3), ServerSite
			if i%2 == 0 {
				from, to = ServerSite, SiteID(1+i%3)
			}
			env.At(at, func() {
				n.Send(Message{Kind: k, From: from, To: to}, mb)
			})
		}
		return drain(env, mb), n.Faults()
	}
	a, sa := run(99)
	b, sb := run(99)
	if sa != sb {
		t.Fatalf("same seed, different fault counters: %+v vs %+v", sa, sb)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].SentAt != b[i].SentAt || a[i].DeliveredAt != b[i].DeliveredAt {
			t.Fatalf("same seed, delivery %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, sc := run(100)
	if sa == sc && len(a) == len(c) {
		same := true
		for i := range a {
			if a[i].DeliveredAt != c[i].DeliveredAt {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced an identical fault schedule")
		}
	}
}

// TestFaultDeliveryNoAllocs: the frames the fault layer takes over —
// duplicated, delayed, retransmitted after a loss — are delivered by
// pooled event hooks, so once the pool holds as many as are pending at
// once a faulty exchange allocates nothing, as a clean one does.
func TestFaultDeliveryNoAllocs(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, DefaultConfig())
	n.SetFaults(FaultConfig{Seed: 7, DropRate: 0.3, DupRate: 0.3, SpikeRate: 0.3, SpikeLatency: 5 * time.Millisecond})
	mb := sim.NewMailbox[Message](env)
	round := func() {
		for range 4 {
			n.Send(Message{Kind: KindObjectRequest, From: 1, To: 0}, mb) // unreliable: dropped, duplicated or late
			n.Send(Message{Kind: KindObjectShip, From: 0, To: 1}, mb)    // reliable: retransmitted until through
		}
		env.RunAll()
		for _, ok := mb.TryGet(); ok; _, ok = mb.TryGet() {
		}
	}
	for range 50 {
		round() // warm the frame pool, the event pool and the ring
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a faulty exchange allocates %.1f objects/op, want 0", allocs)
	}
	if s := n.Faults(); s.Duplicated == 0 || s.Spiked == 0 || s.Retransmits == 0 {
		t.Fatalf("faults did not all fire: %+v", s)
	}
}
