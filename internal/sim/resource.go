package sim

import "time"

// Resource models a server with a fixed number of identical units
// (capacity). Processes acquire a unit, hold it while they work, and
// release it. Waiters are served in priority order (lower value first;
// ties FIFO), which lets callers implement Earliest-Deadline-First service
// by passing the deadline as the priority.
type Resource struct {
	env     *Env
	cap     int
	inUse   int
	waiters resWaitQueue
	seq     int64

	// Grants counts successful acquisitions, for metrics and tests.
	Grants int64
	// BusyTime accumulates unit-seconds of utilization.
	BusyTime time.Duration

	lastChange time.Duration
}

// NewResource returns a resource with the given capacity. Capacity must be
// positive.
func NewResource(env *Env, capacity int) *Resource {
	r := new(Resource)
	r.Init(env, capacity)
	return r
}

// Init makes r an idle resource of the given capacity, in place (a
// field of its owner). Tasks queue on a resource by its address, so it
// is initialised where it lives and not copied afterwards.
func (r *Resource) Init(env *Env, capacity int) {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	*r = Resource{env: env, cap: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.cap }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting for a unit.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Utilization returns the mean fraction of capacity in use since the start
// of the simulation, sampled up to the current time.
func (r *Resource) Utilization() float64 {
	total := r.env.Now()
	if total <= 0 {
		return 0
	}
	busy := r.BusyTime + time.Duration(r.inUse)*(r.env.Now()-r.lastChange)
	return float64(busy) / float64(total) / float64(r.cap)
}

func (r *Resource) account() {
	now := r.env.Now()
	r.BusyTime += time.Duration(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

func (r *Resource) grant() {
	r.account()
	r.inUse++
	r.Grants++
}

// Acquire blocks until a unit is available, queueing behind waiters with
// lower priority values. Waiting is allocation free: the queue node is
// the process's embedded wait record.
func (p *Proc) Acquire(r *Resource, priority float64) {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.grant()
		return
	}
	w := &p.task.rwait
	w.priority = priority
	w.timedOut = false
	w.hasTimer = false
	w.r = r
	r.push(w)
	p.block()
}

// AcquireTimeout is Acquire with a timeout; it reports true when the unit
// was obtained, false when d elapsed first (in which case no unit is
// held).
func (p *Proc) AcquireTimeout(r *Resource, priority float64, d time.Duration) bool {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.grant()
		return true
	}
	if d <= 0 {
		return false
	}
	w := &p.task.rwait
	w.priority = priority
	w.timedOut = false
	w.timer = r.env.scheduleTimeout(r.env.now+d, evResTimeout, &p.task)
	w.hasTimer = true
	w.r = r
	r.push(w)
	p.block()
	return !w.timedOut
}

// Release returns one unit and hands it to the best-priority waiter, if
// any. Calling Release without holding a unit is a model bug and panics.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	r.account()
	r.inUse--
	r.grantNext()
}

func (r *Resource) grantNext() {
	for r.inUse < r.cap && len(r.waiters) > 0 {
		w := r.waiters.pop()
		if w.hasTimer {
			w.timer.Cancel()
			w.hasTimer = false
		}
		w.r = nil
		r.grant()
		r.env.scheduleResume(r.env.now, w.t)
	}
}

func (r *Resource) push(w *resWait) {
	r.seq++
	w.seq = r.seq
	r.waiters.push(w)
}

// resWait is a task's intrusive resource-queue node. Every Task embeds
// exactly one: a blocked task waits on at most one resource. Processes
// and state machines share the queue through their tasks.
type resWait struct {
	t        *Task
	r        *Resource // owning resource while queued, nil otherwise
	priority float64
	seq      int64
	index    int
	timer    Timer
	timedOut bool // beside hasTimer: the two flags share one word
	hasTimer bool
}

// resWaitQueue is a monomorphic binary min-heap ordered by (priority,
// seq), with index maintenance for O(log n) removal on timeout.
type resWaitQueue []*resWait

func (q resWaitQueue) less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority < q[j].priority
	}
	return q[i].seq < q[j].seq
}

func (q resWaitQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q resWaitQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q resWaitQueue) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			return
		}
		q.swap(i, m)
		i = m
	}
}

func (q *resWaitQueue) push(w *resWait) {
	w.index = len(*q)
	*q = append(*q, w)
	q.up(w.index)
}

func (q *resWaitQueue) pop() *resWait {
	h := *q
	n := len(h) - 1
	h.swap(0, n)
	w := h[n]
	h[n] = nil
	*q = h[:n]
	q.down(0)
	return w
}

// remove deletes w from the queue if it is still queued.
func (q *resWaitQueue) remove(w *resWait) {
	i := w.index
	h := *q
	if i < 0 || i >= len(h) || h[i] != w {
		return
	}
	n := len(h) - 1
	h.swap(i, n)
	h[n] = nil
	*q = h[:n]
	if i < n {
		q.down(i)
		q.up(i)
	}
}
