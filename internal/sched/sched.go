// Package sched implements the Earliest-Deadline-First transaction
// scheduling used at every site (Section 2): the transaction with the
// earliest deadline has the highest priority, and transactions whose
// deadlines have already passed are dropped rather than processed. It
// also tracks the observed average transaction length (ATL) each client
// feeds into heuristic H1.
package sched

import (
	"container/heap"
	"time"

	"siteselect/internal/txn"
)

// EDFQueue is a deadline-ordered priority queue of transactions.
type EDFQueue struct {
	items edfHeap
	seq   int64
}

// NewEDFQueue returns an empty queue.
func NewEDFQueue() *EDFQueue { return &EDFQueue{} }

// Len returns the number of queued transactions.
func (q *EDFQueue) Len() int { return q.items.Len() }

// Push enqueues t.
func (q *EDFQueue) Push(t *txn.Transaction) {
	q.seq++
	heap.Push(&q.items, &edfItem{t: t, seq: q.seq})
}

// Pop removes and returns the earliest-deadline transaction, or nil when
// empty.
func (q *EDFQueue) Pop() *txn.Transaction {
	if q.items.Len() == 0 {
		return nil
	}
	return heap.Pop(&q.items).(*edfItem).t
}

type edfItem struct {
	t     *txn.Transaction
	seq   int64
	index int
}

type edfHeap []*edfItem

func (h edfHeap) Len() int { return len(h) }

func (h edfHeap) Less(i, j int) bool {
	if h[i].t.Deadline != h[j].t.Deadline {
		return h[i].t.Deadline < h[j].t.Deadline
	}
	return h[i].seq < h[j].seq
}

func (h edfHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *edfHeap) Push(x any) {
	it := x.(*edfItem)
	it.index = len(*h)
	*h = append(*h, it)
}

func (h *edfHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// ATL tracks the observed average length of completed transactions at a
// site — the execution-time estimate heuristic H1 substitutes for true
// knowledge of task lengths.
type ATL struct {
	count int64
	total time.Duration
	// Default is returned before any observation (a site that has
	// completed nothing assumes this much per transaction).
	Default time.Duration
}

// Observe records one completed transaction's elapsed processing time.
func (a *ATL) Observe(d time.Duration) {
	a.count++
	a.total += d
}

// Mean returns the observed average, or Default with no observations.
func (a *ATL) Mean() time.Duration {
	if a.count == 0 {
		return a.Default
	}
	return a.total / time.Duration(a.count)
}

// FeasibleH1 evaluates heuristic H1: with n transactions ahead of T in
// the priority queue and mean length atl, T has a reasonable chance of
// completing at this site iff now + n·atl ≤ deadline.
func FeasibleH1(now time.Duration, n int, atl time.Duration, deadline time.Duration) bool {
	return now+time.Duration(n)*atl <= deadline
}
