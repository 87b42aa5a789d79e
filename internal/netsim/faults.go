// Fault injection: the network can deterministically drop, duplicate,
// and delay messages and cut sites off the LAN for timed windows. All
// randomness comes from a dedicated seeded stream owned by the network,
// so a (config, seed) pair reproduces the same fault sequence byte for
// byte on every run regardless of experiment worker count. With no
// FaultConfig installed, Send takes exactly the fault-free fast path.
//
// Kinds that carry authoritative state one way — object grants, recalls,
// returns, migration hops, shipped transactions and their results — are
// modeled as travelling on a reliable channel: a lost frame is
// retransmitted with capped exponential backoff until it gets through,
// and the (implied) sequence-number dedup on the receiving side means
// duplicates of these kinds are never delivered. Request–reply kinds
// (requests, control replies, load queries) are left unreliable; the
// protocol recovers via client-side retries and server idempotence.
package netsim

import (
	"time"

	"siteselect/internal/rng"
	"siteselect/internal/sim"
	"siteselect/internal/slab"
)

// Partition isolates one site from the LAN during [Start, End): every
// message to or from the site in that window is lost in transit. The
// site itself keeps running (this is a network cut, not a crash).
type Partition struct {
	Site  SiteID
	Start time.Duration
	End   time.Duration
}

// FaultConfig parameterizes fault injection. Rates are per-message
// probabilities evaluated at send time.
type FaultConfig struct {
	// Seed seeds the fault lottery stream. It should be derived from
	// the run seed independently of the workload streams (see
	// config.CellSeed) so enabling faults does not perturb the
	// generated transactions.
	Seed int64

	DropRate     float64
	DupRate      float64
	SpikeRate    float64
	SpikeLatency time.Duration

	// Partitions is the explicit fault schedule: timed cuts applied on
	// top of the probabilistic faults.
	Partitions []Partition

	// RetransmitTimeout is the base backoff of the modeled reliable
	// channel (doubled per attempt, capped at 32x). Zero selects 50 ms.
	RetransmitTimeout time.Duration

	// Horizon, when positive, ends all fault activity at that virtual
	// time: later sends (including retransmissions of earlier losses)
	// travel clean. Run harnesses set it to the workload generation
	// horizon so the drain window converges — every surviving message,
	// retried request, and healed partition settles deterministically
	// before the run is audited.
	Horizon time.Duration
}

// FaultStats counts injected faults.
type FaultStats struct {
	// Dropped counts frames lost to the random-drop lottery.
	Dropped int64
	// PartitionDrops counts frames lost crossing a partition cut.
	PartitionDrops int64
	// Duplicated counts extra copies delivered.
	Duplicated int64
	// Spiked counts deliveries delayed by SpikeLatency.
	Spiked int64
	// Retransmits counts reliable-channel retransmissions scheduled
	// after a loss.
	Retransmits int64
}

// FaultCounters names the counters of FaultStats, in the order reports
// print them.
var FaultCounters = []struct {
	Name string
	Get  func(FaultStats) int64
}{
	{"dropped", func(s FaultStats) int64 { return s.Dropped }},
	{"duplicated", func(s FaultStats) int64 { return s.Duplicated }},
	{"spiked", func(s FaultStats) int64 { return s.Spiked }},
	{"retransmits", func(s FaultStats) int64 { return s.Retransmits }},
	{"partition-drops", func(s FaultStats) int64 { return s.PartitionDrops }},
}

// faultState is the network's fault-injection machinery, nil when faults
// are off.
type faultState struct {
	cfg   FaultConfig
	rng   *rng.Stream
	stats FaultStats
	// frames holds the frames the fault layer has taken over, one while
	// its event is pending.
	frames slab.Slab[faultFrame]
}

// faultFrame is a frame the fault layer delivers off the ring — late or
// twice — or sends again after a loss: one pooled event hook, handed back
// when it fires, where a closure per frame would be an object each.
type faultFrame struct {
	n    *Network
	msg  Message
	dest *sim.Mailbox[Message]
	// resend marks a retransmission: the frame goes through Send again
	// rather than into dest.
	resend bool
}

// at schedules msg's delivery into dest, or with resend its
// retransmission, at t.
func (n *Network) at(t time.Duration, msg Message, dest *sim.Mailbox[Message], resend bool) {
	f := n.faults.frames.New()
	*f = faultFrame{n: n, msg: msg, dest: dest, resend: resend}
	n.env.AtHook(t, f)
}

// RunEvent delivers or resends the frame. It implements sim.EventHook.
func (f *faultFrame) RunEvent() {
	n, msg, dest, resend := f.n, f.msg, f.dest, f.resend
	n.faults.frames.Put(f) // first: the Send below may take it again
	if resend {
		n.Send(msg, dest)
	} else {
		dest.Put(msg)
	}
}

// SetFaults installs fault injection on the network. Call before the
// simulation starts; passing a zero-rate, partition-free config is
// equivalent to never calling it.
func (n *Network) SetFaults(cfg FaultConfig) {
	if cfg.DropRate <= 0 && cfg.DupRate <= 0 && cfg.SpikeRate <= 0 && len(cfg.Partitions) == 0 {
		n.faults = nil
		return
	}
	if cfg.RetransmitTimeout <= 0 {
		cfg.RetransmitTimeout = 50 * time.Millisecond
	}
	n.faults = &faultState{cfg: cfg, rng: rng.NewStream(cfg.Seed)}
}

// Faults returns the accumulated fault counters.
func (n *Network) Faults() FaultStats {
	if n.faults == nil {
		return FaultStats{}
	}
	return n.faults.stats
}

// Reliable reports whether the kind travels on the modeled reliable
// channel under fault injection: one-way messages whose loss the
// protocol could not otherwise recover from (grants carrying forward
// lists, recalls the server's dedup map would never reissue, returns
// and migration hops carrying the only copy of committed data, shipped
// transactions and their results).
func (k Kind) Reliable() bool {
	switch k {
	case KindObjectShip, KindRecall, KindObjectReturn, KindClientForward, KindTxnShip, KindTxnResult:
		return true
	}
	return false
}

// isolated reports whether site is cut off the LAN at time at.
func (f *faultState) isolated(site SiteID, at time.Duration) bool {
	for _, p := range f.cfg.Partitions {
		if p.Site == site && at >= p.Start && at < p.End {
			return true
		}
	}
	return false
}

// deliverFaulty applies the fault lottery to a message whose clean
// delivery time is deliver. It reports true when it took over delivery
// (drop, duplicate, or spike — all scheduled off the FIFO ring, whose
// nondecreasing-delivery invariant holds only for clean traffic) and
// false when the message should take the fault-free ring path.
func (n *Network) deliverFaulty(msg Message, dest *sim.Mailbox[Message], deliver time.Duration) bool {
	f := n.faults
	if f.cfg.Horizon > 0 && msg.SentAt >= f.cfg.Horizon {
		return false // past the fault horizon: clean delivery
	}
	rel := msg.Kind.Reliable()
	if f.isolated(msg.From, msg.SentAt) || f.isolated(msg.To, msg.SentAt) {
		f.stats.PartitionDrops++
		if rel {
			n.scheduleRetransmit(msg, dest)
		}
		return true
	}
	if f.cfg.DropRate > 0 && f.rng.Float64() < f.cfg.DropRate {
		f.stats.Dropped++
		if rel {
			n.scheduleRetransmit(msg, dest)
		}
		return true
	}
	if !rel && f.cfg.DupRate > 0 && f.rng.Float64() < f.cfg.DupRate {
		// The extra copy trails the original by one latency; both
		// deliveries bypass the ring, and both are marked as sharing
		// their payload so neither receiver recycles it.
		f.stats.Duplicated++
		msg.Shared = true
		dup := msg
		dup.DeliveredAt = deliver + n.cfg.Latency + time.Nanosecond
		n.at(dup.DeliveredAt, dup, dest, false)
		n.at(deliver, msg, dest, false)
		if f.cfg.SpikeRate > 0 {
			f.rng.Float64() // keep the per-message draw count stable
		}
		return true
	}
	if f.cfg.SpikeRate > 0 && f.rng.Float64() < f.cfg.SpikeRate {
		f.stats.Spiked++
		msg.DeliveredAt = deliver + f.cfg.SpikeLatency
		n.at(msg.DeliveredAt, msg, dest, false)
		return true
	}
	return false
}

// scheduleRetransmit re-sends a lost reliable frame after a backoff that
// doubles per attempt (capped at 32x the base). The retransmission goes
// through Send again — it re-occupies the bus, is recounted in the
// traffic stats, and faces the fault lottery anew — so a frame crossing
// a partition keeps retrying until the cut heals.
func (n *Network) scheduleRetransmit(msg Message, dest *sim.Mailbox[Message]) {
	f := n.faults
	shift := msg.rexmit
	if shift > 5 {
		shift = 5
	}
	if msg.rexmit < 250 {
		msg.rexmit++
	}
	f.stats.Retransmits++
	n.at(n.env.Now()+f.cfg.RetransmitTimeout<<shift, msg, dest, true)
}
