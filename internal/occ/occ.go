// Package occ implements the optimistic concurrency control the paper's
// conclusion names as future work ("we intend to study the use of
// optimistic concurrency control and speculative transaction processing
// techniques"): Kung–Robinson style backward validation with version
// checking.
//
// A transaction runs in three phases. In the read phase it snapshots the
// versions of every object it touches and computes speculatively,
// holding no locks. At commit it validates: if any object it read
// changed since the snapshot, the transaction restarts (if its deadline
// still permits); otherwise its writes are installed atomically.
// Validation is serialized, which makes the version check a consistent
// cut.
//
// In a real-time setting the interesting trade is blocking versus wasted
// work: 2PL transactions wait for locks but never redo computation; OCC
// transactions never wait but may burn their slack re-executing. The
// cmd/rtbench "occ" experiment compares the two on the centralized
// system across update mixes.
package occ

import (
	"slices"

	"siteselect/internal/lockmgr"
	"siteselect/internal/txn"
)

// Validator is the shared validation state: the committed version of
// every object. Validation calls must be externally serialized (the
// centralized engine runs them in a one-slot critical section).
type Validator struct {
	versions []int64

	// Validations and Conflicts count outcomes; Restarts counts
	// transactions sent back to their read phase.
	Validations int64
	Conflicts   int64
}

// NewValidator returns a validator over dbSize objects at version zero.
func NewValidator(dbSize int) *Validator {
	return &Validator{versions: make([]int64, dbSize)}
}

// Version returns the committed version of obj.
func (v *Validator) Version(obj lockmgr.ObjectID) int64 { return v.versions[obj] }

// ReadSet snapshots the versions of the objects ops touch, in access
// order, for a transaction starting its read phase; it appends them to
// snap, the caller's to keep from one attempt to the next.
func (v *Validator) ReadSet(ops []txn.Op, snap []int64) []int64 {
	snap = slices.Grow(snap, len(ops))
	for _, op := range ops {
		snap = append(snap, v.versions[op.Obj])
	}
	return snap
}

// Validate checks a transaction's read snapshot against the current
// committed versions and, when valid, installs its writes (bumping their
// versions). It reports whether the transaction committed.
func (v *Validator) Validate(ops []txn.Op, snapshot []int64) bool {
	v.Validations++
	for i, op := range ops {
		if v.versions[op.Obj] != snapshot[i] {
			v.Conflicts++
			return false
		}
	}
	for _, op := range ops {
		if op.Write {
			v.versions[op.Obj]++
		}
	}
	return true
}
