package netsim

import (
	"testing"
	"time"

	"siteselect/internal/sim"
)

func TestTransmitTime(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, Config{Latency: time.Millisecond, BandwidthBps: 10e6})
	// 2048 bytes at 10 Mbps = 16384 bits / 10e6 bps = 1.6384 ms.
	got := n.TransmitTime(ObjectBytes)
	want := 1638400 * time.Nanosecond
	if got != want {
		t.Fatalf("TransmitTime = %v, want %v", got, want)
	}
}

func TestDeliveryTimeAndStamp(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, Config{Latency: time.Millisecond, BandwidthBps: 8e6}) // 1 byte = 1 µs
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindObjectShip, From: 0, To: 1, Size: 1000}, mb)
	got := drain(env, mb)[0]
	want := time.Millisecond + 1000*time.Microsecond
	if env.Now() != want {
		t.Fatalf("delivered at %v, want %v", env.Now(), want)
	}
	if got.DeliveredAt != want || got.SentAt != 0 {
		t.Fatalf("stamps = sent %v delivered %v", got.SentAt, got.DeliveredAt)
	}
}

func TestSharedBusSerializes(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, Config{Latency: 0, BandwidthBps: 8e6}) // 1 byte = 1 µs
	mb := sim.NewMailbox[Message](env)
	// Two 1000-byte frames sent at the same instant must arrive 1 ms apart.
	n.Send(Message{Kind: KindObjectShip, Size: 1000}, mb)
	n.Send(Message{Kind: KindObjectShip, Size: 1000}, mb)
	var times []time.Duration
	for _, m := range drain(env, mb) {
		times = append(times, m.DeliveredAt)
	}
	if times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Fatalf("delivery times = %v", times)
	}
}

func TestBusIdleGapDoesNotAccumulate(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, Config{Latency: 0, BandwidthBps: 8e6})
	mb := sim.NewMailbox[Message](env)
	env.Schedule(time.Second, func() {
		n.Send(Message{Kind: KindRecall, Size: 1000}, mb)
	})
	env.RunAll()
	if env.Now() != time.Second+time.Millisecond {
		t.Fatalf("late send delivered at %v", env.Now())
	}
}

func TestStatsPerKind(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, DefaultConfig())
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindObjectRequest, Size: 128}, mb)
	n.Send(Message{Kind: KindObjectRequest, Size: 128}, mb)
	n.Send(Message{Kind: KindObjectShip, Size: 2048}, mb)
	if s := n.Stats(KindObjectRequest); s.Count != 2 || s.Bytes != 256 {
		t.Fatalf("ObjectRequest stats = %+v", s)
	}
	if s := n.Stats(KindObjectShip); s.Count != 1 || s.Bytes != 2048 {
		t.Fatalf("ObjectShip stats = %+v", s)
	}
	if n.TotalMessages() != 3 {
		t.Fatalf("total = %d", n.TotalMessages())
	}
	if n.TotalBytes() != 2304 {
		t.Fatalf("bytes = %d", n.TotalBytes())
	}
}

// TestSendWithNoInbox: a message sent to no inbox takes the bus and is
// counted like any other, but posts no event and is delivered nowhere.
func TestSendWithNoInbox(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, Config{Latency: 0, BandwidthBps: 8e6}) // 1 byte = 1 µs
	if transit := n.Send(Message{Kind: KindUserResult, Size: 1000}, nil); transit != time.Millisecond {
		t.Fatalf("transit = %v, want 1ms", transit)
	}
	if s := n.Stats(KindUserResult); s.Count != 1 || s.Bytes != 1000 || n.TotalMessages() != 1 {
		t.Fatalf("UserResult stats = %+v, total %d", s, n.TotalMessages())
	}
	if env.Step() {
		t.Fatal("a send to no inbox posted an event")
	}
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindObjectShip, Size: 1000}, mb)
	if got := drain(env, mb); len(got) != 1 || got[0].DeliveredAt != 2*time.Millisecond {
		t.Fatalf("delivered %+v, want one frame at 2ms, behind the first on the bus", got)
	}
}

func TestDefaultSizeApplied(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, DefaultConfig())
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindLockReply}, mb)
	if s := n.Stats(KindLockReply); s.Bytes != ControlBytes {
		t.Fatalf("default size = %d, want %d", s.Bytes, ControlBytes)
	}
}

func TestKindString(t *testing.T) {
	if KindObjectRequest.String() != "ObjectRequest" {
		t.Fatal("Kind.String broken")
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Fatalf("unknown Kind.String = %q, want Kind(99)", got)
	}
}

func TestUtilization(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, Config{Latency: 0, BandwidthBps: 8e6})
	mb := sim.NewMailbox[Message](env)
	n.Send(Message{Kind: KindObjectShip, Size: 1000}, mb) // 1 ms busy
	env.RunAll()
	env.Run(10 * time.Millisecond)
	if u := n.Utilization(); u < 0.09 || u > 0.11 {
		t.Fatalf("utilization = %v, want ~0.1", u)
	}
}

func TestSwitchedTopologyNoBusQueueing(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, Config{Latency: time.Millisecond, BandwidthBps: 8e6, Switched: true})
	mb := sim.NewMailbox[Message](env)
	// Two large frames sent together: on a switch both arrive after
	// latency+transmission, with only a nanosecond of ordering skew —
	// no serialization on the medium.
	n.Send(Message{Kind: KindObjectShip, Size: 1000}, mb)
	n.Send(Message{Kind: KindObjectShip, Size: 1000}, mb)
	var times []time.Duration
	for _, m := range drain(env, mb) {
		times = append(times, m.DeliveredAt)
	}
	want := 2 * time.Millisecond // 1ms tx + 1ms latency
	if times[0] != want {
		t.Fatalf("first delivery = %v, want %v", times[0], want)
	}
	if times[1] != want+time.Nanosecond {
		t.Fatalf("second delivery = %v, want %v", times[1], want+time.Nanosecond)
	}
}

func TestSwitchedPreservesSendOrder(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, Config{Latency: 0, BandwidthBps: 8e6, Switched: true})
	mb := sim.NewMailbox[Message](env)
	// A big frame sent first must still arrive before a small frame
	// sent immediately after (global send-order clamp).
	n.Send(Message{Kind: KindObjectShip, Size: 4000}, mb)
	n.Send(Message{Kind: KindLockReply, Size: 10}, mb)
	var kinds []Kind
	for _, m := range drain(env, mb) {
		kinds = append(kinds, m.Kind)
	}
	if kinds[0] != KindObjectShip || kinds[1] != KindLockReply {
		t.Fatalf("delivery order = %v", kinds)
	}
}
