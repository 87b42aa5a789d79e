// Package wal models client-based write-ahead logging, the recovery
// scheme of the client-server framework the paper builds on (Panagos et
// al., "Client-Based Logging for High Performance Distributed
// Architectures", reference [16]): each client appends update records to
// its own local log and forces the tail to its disk at commit, so a
// committed transaction's effects survive a crash without a synchronous
// round trip to the server.
//
// The model charges real device time for log forces through the owning
// site's disk resource and implements group commit: forces requested
// while another force is in progress share the next one.
package wal

import (
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/sim"
)

// Record is one logged update.
type Record struct {
	// LSN is the record's log sequence number (1-based, dense).
	LSN int64
	// Txn tags the writing transaction (opaque to the log).
	Txn int64
	// Obj and Version identify the update.
	Obj     lockmgr.ObjectID
	Version int64
}

// Log is a single site's append-only log.
type Log struct {
	env      *sim.Env
	disk     *sim.Resource
	force    time.Duration
	window   time.Duration
	records  []Record
	durable  int64 // highest LSN on disk
	forcing  bool
	forceEnd *sim.Signal

	// Forces counts physical device forces; Appends counts records.
	// GroupCommits counts forces that made more than one transaction
	// durable.
	Forces       int64
	Appends      int64
	GroupCommits int64

	pendingTxns map[int64]bool
}

// New returns a log whose forces serialize on disk and take forceTime
// each.
func New(env *sim.Env, disk *sim.Resource, forceTime time.Duration) *Log {
	return &Log{
		env:         env,
		disk:        disk,
		force:       forceTime,
		forceEnd:    sim.NewSignal(env),
		pendingTxns: make(map[int64]bool),
	}
}

// SetGroupWindow widens group commit: the first committer to reach an
// idle device (the force leader) waits window before computing the
// force target, so every commit landing within the window shares the
// single disk write instead of only those that happened to collide with
// an in-progress force. Zero (the default) preserves the original
// collide-only group commit exactly — the leader never sleeps and no
// event is scheduled. Wired from Config.BatchWindow.
func (l *Log) SetGroupWindow(window time.Duration) { l.window = window }

// Append adds a record to the in-memory log tail and returns its LSN.
func (l *Log) Append(txnID int64, obj lockmgr.ObjectID, version int64) int64 {
	l.Appends++
	lsn := int64(len(l.records)) + 1
	l.records = append(l.records, Record{LSN: lsn, Txn: txnID, Obj: obj, Version: version})
	return lsn
}

// DurableLSN returns the highest LSN known to be on disk.
func (l *Log) DurableLSN() int64 { return l.durable }

// Len returns the number of appended records.
func (l *Log) Len() int { return len(l.records) }

// Records returns the appended records (live slice; callers must not
// mutate).
func (l *Log) Records() []Record { return l.records }

// ForceOp makes every record up to an LSN durable: a resumable op
// embedded in the committing sim.Machine. Concurrent committers
// piggyback on the in-progress force when it will cover them, or join
// the next one (group commit).
type ForceOp struct {
	l      *Log
	txnID  int64
	lsn    int64
	target int64
	pc     uint8
}

const (
	fcCheck uint8 = iota
	fcTarget
	fcAcquired
	fcLanded
)

// Init arms the op to make every record up to lsn durable.
func (o *ForceOp) Init(l *Log, txnID, lsn int64) {
	o.l, o.txnID, o.lsn, o.pc = l, txnID, lsn, fcCheck
}

// Step advances the force; false means the task parked and Step must
// run again on the next resume.
func (o *ForceOp) Step(t *sim.Task) bool {
	l := o.l
	for {
		switch o.pc {
		case fcCheck:
			if l.durable >= o.lsn {
				return true
			}
			if l.forcing {
				// Someone is at the device; wait for that force to land
				// and re-check (it may already cover us).
				l.pendingTxns[o.txnID] = true
				t.Wait(l.forceEnd)
				return false
			}
			// Take the leader role: forcing is set, so later committers
			// park on forceEnd. With a group-commit window the leader
			// first lets appends accumulate before fixing the target.
			l.forcing = true
			o.pc = fcTarget
			if l.window > 0 {
				t.Sleep(l.window)
				return false
			}
		case fcTarget:
			o.target = int64(len(l.records)) // everything appended so far
			o.pc = fcAcquired
			if !t.Acquire(l.disk, 0) {
				return false
			}
		case fcAcquired:
			o.pc = fcLanded
			t.Sleep(l.force)
			return false
		default: // fcLanded
			l.disk.Release()
			if o.target > l.durable {
				l.durable = o.target
			}
			l.forcing = false
			l.Forces++
			if len(l.pendingTxns) > 0 {
				l.GroupCommits++
				clear(l.pendingTxns)
			}
			l.forceEnd.Broadcast()
			o.pc = fcCheck
		}
	}
}
