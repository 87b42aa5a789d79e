package sim

import "siteselect/internal/slab"

// Mailbox is an unbounded FIFO queue between actors. Put never blocks
// (and may be called from event callbacks, not just machines); TryGet
// takes the head item, if any.
//
// A mailbox has one reader, an EventHook, and no machine waits on it: a
// site that only waits for its messages runs nothing while it waits. A
// Put that finds the reader idle posts the reader's hook at the current
// instant — the one event, at the same sequence number, that woke a
// machine parked on the mailbox when readers were machines — and Puts
// after it post nothing until the reader goes idle again. The reader is
// idle from Init, and goes idle again when a TryGet of its finds the
// mailbox dry: a reader
// drains in a loop until it does, or holds its items for a later event
// of its own (a partitioned client) or while it is busy with one in hand
// (a shard connection charging the CPU). A mailbox with no reader
// (NewMailbox) wakes nobody: whatever reads it polls with TryGet.
//
// Items live in a power-of-two ring buffer, so a steady-state
// Put/TryGet cycle allocates nothing and the backing array never grows
// past the high-water mark of queued items (the earlier slice-based
// implementation leaked backing-array growth on every Put/Get pair).
// The first Put takes a ring of two and a full ring doubles. A mailbox
// on a slab of rings (Init) takes them from it and gives its ring back
// when drained, so a parked site's mailbox holds no ring: at population
// scale most mailboxes never queue more than one message at once, and
// the system keeps about as many rings as it has messages queued. A ring
// longer than the slab keeps blocks of stays with its mailbox, as every
// ring of a mailbox without a slab does.
type Mailbox[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int32
	// n is the number of queued items, or idle while the reader waits
	// for the next Put (the mailbox is then empty).
	n      int32
	rings  *slab.Slab[T]
	env    *Env
	reader EventHook
}

// idle is Mailbox.n while the reader waits for a Put.
const idle = -1

// NewMailbox returns an empty mailbox bound to env, with rings of its
// own and no reader.
func NewMailbox[T any](env *Env) *Mailbox[T] {
	m := new(Mailbox[T])
	m.Init(env, nil, nil)
	return m
}

// Init makes m an empty mailbox bound to env, in place: a population's
// mailboxes are elements of one array. rings is the slab its rings come
// from and go back to — the one owner of the item type's, shared by
// every mailbox of the system — or nil for rings of its own. reader is
// the hook the next Put posts, idle from now on; nil for none.
func (m *Mailbox[T]) Init(env *Env, rings *slab.Slab[T], reader EventHook) {
	*m = Mailbox[T]{rings: rings, env: env, reader: reader}
	if reader != nil {
		m.n = idle
	}
}

// Put appends v and, if the reader is idle, posts its hook.
func (m *Mailbox[T]) Put(v T) {
	if m.n == idle {
		m.n = 0
		m.env.AtHook(m.env.now, m.reader)
	}
	if int(m.n) == len(m.buf) {
		m.grow()
	}
	m.buf[int(m.head+m.n)&(len(m.buf)-1)] = v
	m.n++
}

func (m *Mailbox[T]) grow() {
	newCap := max(2*len(m.buf), 2)
	var buf []T
	if m.rings != nil {
		buf = m.rings.Block(newCap)
	} else {
		buf = make([]T, newCap)
	}
	for i := 0; i < int(m.n); i++ {
		buf[i] = m.buf[(int(m.head)+i)&(len(m.buf)-1)]
	}
	if m.rings != nil && len(m.buf) > 0 {
		m.rings.PutBlock(m.buf)
	}
	m.buf = buf
	m.head = 0
}

// TryGet removes and returns the head item without blocking. The second
// result is false when the mailbox is empty, and the reader is then
// idle: the next Put posts its hook.
func (m *Mailbox[T]) TryGet() (T, bool) {
	var zero T
	if m.n <= 0 {
		if m.reader != nil {
			m.n = idle
		}
		return zero, false
	}
	i := int(m.head)
	v := m.buf[i]
	m.buf[i] = zero
	m.head = int32((i + 1) & (len(m.buf) - 1))
	if m.n--; m.n == 0 && m.rings != nil && m.rings.PutBlock(m.buf) {
		m.buf, m.head = nil, 0
	}
	return v, true
}
