package sched

import (
	"container/heap"
	"time"

	"siteselect/internal/txn"
)

// Peek returns the earliest-deadline transaction without removing it, or
// nil when empty.
func (q *EDFQueue) Peek() *txn.Transaction {
	if q.items.Len() == 0 {
		return nil
	}
	return q.items[0].t
}

// PopReady removes and returns the earliest-deadline transaction whose
// deadline has not passed at now. Transactions found to have missed their
// deadlines are removed and returned in missed (the ED policy's "tasks
// that have missed their deadlines are not processed at all").
func (q *EDFQueue) PopReady(now time.Duration) (ready *txn.Transaction, missed []*txn.Transaction) {
	for q.items.Len() > 0 {
		t := heap.Pop(&q.items).(*edfItem).t
		if now > t.Deadline {
			missed = append(missed, t)
			continue
		}
		return t, missed
	}
	return nil, missed
}

// DropMissed removes every transaction whose deadline passed at now.
func (q *EDFQueue) DropMissed(now time.Duration) []*txn.Transaction {
	var missed []*txn.Transaction
	kept := make([]*edfItem, 0, q.items.Len())
	for _, it := range q.items {
		if now > it.t.Deadline {
			missed = append(missed, it.t)
		} else {
			// heap.Init below only touches the indexes of items it
			// swaps; the compaction must reassign every survivor's.
			it.index = len(kept)
			kept = append(kept, it)
		}
	}
	if len(missed) > 0 {
		q.items = kept
		heap.Init(&q.items)
	}
	return missed
}
