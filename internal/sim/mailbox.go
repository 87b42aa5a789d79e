package sim

import "siteselect/internal/slab"

// Mailbox is an unbounded FIFO queue between actors. Put never blocks
// (and may be called from event callbacks, not just machines); Recv
// parks the calling machine until an item is available.
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
	buf   []T // len(buf) is zero or a power of two
	head  int32
	n     int32
	rings *slab.Slab[T]
	sig   Signal
}

// NewMailbox returns an empty mailbox bound to env, with rings of its
// own.
func NewMailbox[T any](env *Env) *Mailbox[T] {
	m := new(Mailbox[T])
	m.Init(env, nil)
	return m
}

// Init makes m an empty mailbox bound to env, in place: a population's
// mailboxes are elements of one array. A mailbox holds a Signal, so it
// is initialised where it lives and not copied afterwards. rings is the
// slab its rings come from and go back to — the one owner of the item
// type's, shared by every mailbox of the system — or nil for rings of its
// own.
func (m *Mailbox[T]) Init(env *Env, rings *slab.Slab[T]) {
	*m = Mailbox[T]{rings: rings, sig: Signal{env: env}}
}

// Put appends v and wakes one waiting receiver, if any.
func (m *Mailbox[T]) Put(v T) {
	if int(m.n) == len(m.buf) {
		m.grow()
	}
	m.buf[int(m.head+m.n)&(len(m.buf)-1)] = v
	m.n++
	m.sig.Fire()
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
// result is false when the mailbox is empty.
func (m *Mailbox[T]) TryGet() (T, bool) {
	var zero T
	if m.n == 0 {
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

// Recv removes and returns the head item for a state machine. When the
// mailbox is empty it parks the task on the mailbox's signal and
// reports ok=false: the machine must return from Resume, and the next
// Put resumes it. A resumed machine must call Recv again in a drain
// loop — one wakeup can cover several buffered items.
func (m *Mailbox[T]) Recv(t *Task) (T, bool) {
	if v, ok := m.TryGet(); ok {
		return v, true
	}
	t.Wait(&m.sig)
	var zero T
	return zero, false
}
