// Package netsim models the cluster interconnect: a shared-medium LAN
// (the paper uses 10 Mbps Ethernet) carrying typed messages between
// sites. Transmission time is serialized on the shared bus
// (size/bandwidth) and every message additionally pays a propagation and
// protocol-stack latency. Per-kind message and byte counters feed the
// Table 4 reproduction.
package netsim

import (
	"strconv"
	"time"

	"siteselect/internal/sim"
)

// SiteID identifies a site. The server is conventionally site 0 and
// clients are 1..N.
type SiteID int

// ServerSite is the conventional SiteID of the database server.
const ServerSite SiteID = 0

// Kind classifies messages for accounting. The first five kinds are the
// rows of the paper's Table 4.
type Kind int

// Message kinds.
const (
	// KindObjectRequest is a client-to-server object/lock request.
	KindObjectRequest Kind = iota + 1
	// KindObjectShip is a server-to-client object grant carrying data.
	KindObjectShip
	// KindRecall is a server-to-client lock callback.
	KindRecall
	// KindObjectReturn is a client-to-server object return (data or
	// release notice) answering a recall or a voluntary eviction.
	KindObjectReturn
	// KindClientForward is a client-to-client object hop along a
	// forward list.
	KindClientForward
	// KindLockReply is a server-to-client control reply that carries no
	// object data (denials, conflict-location reports).
	KindLockReply
	// KindTxnShip carries a transaction (or subtask) to another site.
	KindTxnShip
	// KindTxnResult returns a shipped transaction's results to its
	// origin.
	KindTxnResult
	// KindLoadQuery asks the server for object locations and client
	// loads.
	KindLoadQuery
	// KindLoadReply answers a load query.
	KindLoadReply
	// KindTxnSubmit carries a whole transaction to the centralized
	// server.
	KindTxnSubmit
	// KindUserResult carries a transaction's results back to the
	// submitting terminal (centralized system).
	KindUserResult

	// NumKinds bounds the kind enum: the kinds are KindObjectRequest
	// up to, not including, NumKinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	KindObjectRequest: "ObjectRequest",
	KindObjectShip:    "ObjectShip",
	KindRecall:        "Recall",
	KindObjectReturn:  "ObjectReturn",
	KindClientForward: "ClientForward",
	KindLockReply:     "LockReply",
	KindTxnShip:       "TxnShip",
	KindTxnResult:     "TxnResult",
	KindLoadQuery:     "LoadQuery",
	KindLoadReply:     "LoadReply",
	KindTxnSubmit:     "TxnSubmit",
	KindUserResult:    "UserResult",
}

// String returns the kind's name, or "Kind(n)" for unknown values.
func (k Kind) String() string {
	if k > 0 && k < NumKinds {
		return kindNames[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// KindByName returns the kind String names so.
func KindByName(name string) (Kind, bool) {
	for k := KindObjectRequest; k < NumKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// Typical message sizes in bytes. Objects are the paper's 2 KB pages;
// control messages are small frames.
const (
	ObjectBytes  = 2048
	ControlBytes = 128
	TxnShipBytes = 1024
	ResultBytes  = 512
)

// Message is a frame on the LAN.
type Message struct {
	Kind    Kind
	From    SiteID
	To      SiteID
	Size    int
	Payload any
	// SentAt and DeliveredAt are stamped by the network.
	SentAt      time.Duration
	DeliveredAt time.Duration

	// Shared marks a frame the fault layer delivers twice: both copies
	// carry the one Payload, so a receiver that recycles payload records
	// must leave this one to the collector.
	Shared bool

	// rexmit counts reliable-channel retransmissions of this frame
	// (fault injection only), driving the backoff schedule.
	rexmit uint8
}

// KindStats aggregates traffic for one message kind.
type KindStats struct {
	Count int64
	Bytes int64
}

// Config sets the physical characteristics of the LAN.
type Config struct {
	// Latency is the fixed per-message cost (propagation plus protocol
	// stack).
	Latency time.Duration
	// BandwidthBps is the shared-medium capacity in bits per second.
	BandwidthBps float64
	// Switched delivers every message at full bandwidth (a non-blocking
	// switch) instead of serializing transmissions on one bus. Message
	// timestamps remain globally ordered by send time either way.
	Switched bool
}

// DefaultConfig matches the paper's testbed: 10 Mbps Ethernet with a
// half-millisecond fixed cost.
func DefaultConfig() Config {
	return Config{Latency: 500 * time.Microsecond, BandwidthBps: 10e6}
}

// pending is an in-flight message waiting for its delivery event.
type pending struct {
	msg  Message
	dest *sim.Mailbox[Message]
}

// Network is the shared LAN.
type Network struct {
	env         *sim.Env
	cfg         Config
	busFreeAt   time.Duration
	lastDeliver time.Duration
	stats       [NumKinds]KindStats
	trace       func(Message)
	faults      *faultState

	// pend is a FIFO ring (power-of-two capacity) of in-flight
	// messages. Delivery times are nondecreasing in send order on both
	// topologies, so the network schedules one closure-free sim event
	// per message (RunEvent) and pops the head: a steady-state Send
	// allocates nothing.
	pend     []pending
	pendHead int
	pendN    int
}

// SetTrace installs a callback invoked for every message as it is sent
// (with SentAt/DeliveredAt already stamped). The network is the single
// chokepoint all protocol activity crosses, which makes this the
// cheapest full-system trace. Pass nil to disable.
func (n *Network) SetTrace(fn func(Message)) { n.trace = fn }

// New returns a network on env.
func New(env *sim.Env, cfg Config) *Network {
	if cfg.BandwidthBps <= 0 {
		cfg.BandwidthBps = 10e6
	}
	return &Network{env: env, cfg: cfg}
}

// TransmitTime returns the serialization delay of size bytes on the bus.
func (n *Network) TransmitTime(size int) time.Duration {
	bits := float64(size) * 8
	return time.Duration(bits / n.cfg.BandwidthBps * float64(time.Second))
}

// Send queues msg for delivery into dest. The sender does not block: the
// message occupies the shared bus for its transmission time (waiting
// behind frames already queued) and arrives Latency later. Send stamps
// SentAt/DeliveredAt on the delivered copy and returns the transit time
// (DeliveredAt − SentAt) so senders can attribute network time; under
// fault injection the returned value is the nominal transit of the
// original frame, whatever the fault layer then does with it.
func (n *Network) Send(msg Message, dest *sim.Mailbox[Message]) time.Duration {
	if msg.Size <= 0 {
		msg.Size = ControlBytes
	}
	now := n.env.Now()
	msg.SentAt = now

	var deliver time.Duration
	if n.cfg.Switched {
		// Non-blocking switch: no queueing for the medium, just
		// transmission time and latency. Delivery is clamped to stay
		// in global send order (a nanosecond of skew), which parts of
		// the protocol (grant/recall ordering) rely on.
		deliver = now + n.TransmitTime(msg.Size) + n.cfg.Latency
		if deliver <= n.lastDeliver {
			deliver = n.lastDeliver + time.Nanosecond
		}
	} else {
		start := n.busFreeAt
		if start < now {
			start = now
		}
		done := start + n.TransmitTime(msg.Size)
		n.busFreeAt = done
		deliver = done + n.cfg.Latency
		// The bus serializes transmissions, so deliver is already
		// nondecreasing; the clamp just pins the FIFO invariant the
		// pending ring depends on.
		if deliver < n.lastDeliver {
			deliver = n.lastDeliver
		}
	}
	n.lastDeliver = deliver
	msg.DeliveredAt = deliver

	if int(msg.Kind) > 0 && int(msg.Kind) < int(NumKinds) {
		n.stats[msg.Kind].Count++
		n.stats[msg.Kind].Bytes += int64(msg.Size)
	}
	if n.trace != nil {
		n.trace(msg)
	}

	if n.faults != nil && n.deliverFaulty(msg, dest, deliver) {
		return deliver - now
	}
	n.push(pending{msg: msg, dest: dest})
	n.env.AtHook(deliver, n)
	return deliver - now
}

func (n *Network) push(pm pending) {
	if n.pendN == len(n.pend) {
		newCap := len(n.pend) * 2
		if newCap == 0 {
			newCap = 16
		}
		buf := make([]pending, newCap)
		for i := 0; i < n.pendN; i++ {
			buf[i] = n.pend[(n.pendHead+i)&(len(n.pend)-1)]
		}
		n.pend = buf
		n.pendHead = 0
	}
	n.pend[(n.pendHead+n.pendN)&(len(n.pend)-1)] = pm
	n.pendN++
}

// RunEvent delivers the oldest in-flight message. It implements
// sim.EventHook: delivery events are scheduled in send order and fire
// in delivery-time order, which coincide (see Send), so popping the
// ring head always yields the right message.
func (n *Network) RunEvent() {
	i := n.pendHead
	pm := n.pend[i]
	n.pend[i] = pending{}
	n.pendHead = (i + 1) & (len(n.pend) - 1)
	n.pendN--
	pm.dest.Put(pm.msg)
}

// Stats returns the accumulated counters for kind.
func (n *Network) Stats(kind Kind) KindStats {
	if int(kind) <= 0 || int(kind) >= int(NumKinds) {
		return KindStats{}
	}
	return n.stats[kind]
}

// TotalMessages returns the count of all messages sent.
func (n *Network) TotalMessages() int64 {
	var t int64
	for _, s := range n.stats {
		t += s.Count
	}
	return t
}

// TotalBytes returns the bytes of all messages sent.
func (n *Network) TotalBytes() int64 {
	var t int64
	for _, s := range n.stats {
		t += s.Bytes
	}
	return t
}

// Utilization returns the fraction of elapsed time the bus has been
// transmitting.
func (n *Network) Utilization() float64 {
	if n.env.Now() <= 0 {
		return 0
	}
	var bits float64
	for _, s := range n.stats {
		bits += float64(s.Bytes) * 8
	}
	busy := bits / n.cfg.BandwidthBps
	return busy / n.env.Now().Seconds()
}
