package sim

// Mailbox is an unbounded FIFO queue between actors. Put never blocks
// (and may be called from event callbacks, not just machines); Recv
// parks the calling machine until an item is available.
//
// Items live in a power-of-two ring buffer, so a steady-state
// Put/TryGet cycle allocates nothing and the backing array never grows
// past the high-water mark of queued items (the earlier slice-based
// implementation leaked backing-array growth on every Put/Get pair).
// The first Put allocates a ring of two and a full ring doubles: at
// population scale most mailboxes never queue more than one message,
// and the ring is what a parked site's mailbox weighs.
type Mailbox[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
	sig  Signal
}

// NewMailbox returns an empty mailbox bound to env.
func NewMailbox[T any](env *Env) *Mailbox[T] {
	m := new(Mailbox[T])
	m.Init(env)
	return m
}

// Init makes m an empty mailbox bound to env, in place: a population's
// mailboxes are elements of one array. A mailbox holds a Signal, so it
// is initialised where it lives and not copied afterwards.
func (m *Mailbox[T]) Init(env *Env) {
	*m = Mailbox[T]{sig: Signal{env: env}}
}

// Put appends v and wakes one waiting receiver, if any.
func (m *Mailbox[T]) Put(v T) {
	if m.n == len(m.buf) {
		m.grow()
	}
	m.buf[(m.head+m.n)&(len(m.buf)-1)] = v
	m.n++
	m.sig.Fire()
}

func (m *Mailbox[T]) grow() {
	newCap := len(m.buf) * 2
	if newCap == 0 {
		newCap = 2
	}
	buf := make([]T, newCap)
	for i := 0; i < m.n; i++ {
		buf[i] = m.buf[(m.head+i)&(len(m.buf)-1)]
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
	i := m.head
	v := m.buf[i]
	m.buf[i] = zero
	m.head = (i + 1) & (len(m.buf) - 1)
	m.n--
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
