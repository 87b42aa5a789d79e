package sim

import "time"

// Waiters returns the number of tasks waiting on s. It walks the queue:
// a signal is three words in every record that holds one, and only these
// checks ask.
func (s *Signal) Waiters() int {
	n := 0
	for w := s.head; w != nil; w = w.next {
		n++
	}
	return n
}

// InUse returns the number of units of r currently held.
func (r *Resource) InUse() int { return r.inUse }

// peek reports the next live event Step would execute, looking at the
// heap and the ready FIFO both: its time and pool index. It discards
// canceled entries ahead of it, as Step would. ok is false when no live
// event remains.
func (e *Env) peek() (at time.Duration, idx int32, ok bool) {
	at, inHeap, ok := e.front()
	switch {
	case !ok:
		return 0, 0, false
	case inHeap:
		return at, e.events[0].idx, true
	default:
		return at, e.ready[e.readyHead], true
	}
}
