// Package wal models the cost of client-based write-ahead logging, the
// recovery scheme of the client-server framework the paper builds on
// (Panagos et al., "Client-Based Logging for High Performance Distributed
// Architectures", reference [16]): each client appends update records to
// its own local log and forces the tail to its disk at commit, so a
// committed transaction's effects survive a crash without a synchronous
// round trip to the server.
//
// The log is a force-latency model with group commit, and nothing more.
// It charges real device time for log forces through the owning site's
// disk resource, and forces requested while another force is in progress
// share the next one. It keeps no records: an append is the next log
// sequence number, and nothing reads the log back or replays it. So
// durability across an injected client outage is modelled, not
// recovered: with logging on, a client's dirty copies simply survive the
// outage (client.beginOutage).
package wal

import (
	"time"

	"siteselect/internal/sim"
)

// Log is a single site's append-only log.
type Log struct {
	disk     *sim.Resource
	force    time.Duration
	window   time.Duration
	appended int64 // highest LSN handed out
	durable  int64 // highest LSN on disk
	forcing  bool
	forceEnd *sim.Signal

	// Forces counts physical device forces. Group commit shows as fewer
	// forces than committers.
	Forces int64
}

// New returns a log whose forces serialize on disk and take forceTime
// each.
func New(env *sim.Env, disk *sim.Resource, forceTime time.Duration) *Log {
	return &Log{
		disk:     disk,
		force:    forceTime,
		forceEnd: sim.NewSignal(env),
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

// Append logs one update at the tail and returns its LSN (1-based,
// dense).
func (l *Log) Append() int64 {
	l.appended++
	return l.appended
}

// ForceOp makes every record up to an LSN durable: a resumable op
// embedded in the committing sim.Machine. Concurrent committers
// piggyback on the in-progress force when it will cover them, or join
// the next one (group commit). The leader's force is a sim.HoldOp on the
// log disk.
type ForceOp struct {
	l      *Log
	lsn    int64
	target int64
	pc     uint8
	disk   sim.HoldOp
}

const (
	fcCheck uint8 = iota
	fcTarget
	fcForce
)

// Init arms the op to make every record up to lsn durable.
func (o *ForceOp) Init(l *Log, lsn int64) {
	o.l, o.lsn, o.pc = l, lsn, fcCheck
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
			o.target = l.appended // everything appended so far
			o.pc = fcForce
		default: // fcForce
			if done, _ := o.disk.Step(t, l.disk, 0, l.force, 0); !done {
				return false
			}
			if o.target > l.durable {
				l.durable = o.target
			}
			l.forcing = false
			l.Forces++
			l.forceEnd.Broadcast()
			o.pc = fcCheck
		}
	}
}
