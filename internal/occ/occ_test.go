package occ

import (
	"testing"
	"testing/quick"

	"siteselect/internal/lockmgr"
	"siteselect/internal/txn"
)

// reads and writes build an access list over objs.
func reads(objs ...lockmgr.ObjectID) []txn.Op {
	ops := make([]txn.Op, len(objs))
	for i, obj := range objs {
		ops[i].Obj = obj
	}
	return ops
}

func writes(objs ...lockmgr.ObjectID) []txn.Op {
	ops := reads(objs...)
	for i := range ops {
		ops[i].Write = true
	}
	return ops
}

func TestValidateCleanCommit(t *testing.T) {
	v := NewValidator(10)
	ops := reads(1, 2, 3)
	ops[1].Write = true
	snap := v.ReadSet(ops, nil)
	if !v.Validate(ops, snap) {
		t.Fatal("unconflicted transaction failed validation")
	}
	if v.Version(2) != 1 || v.Version(1) != 0 {
		t.Fatalf("versions = %d/%d", v.Version(1), v.Version(2))
	}
	if v.Validations != 1 || v.Conflicts != 0 {
		t.Fatalf("counters = %d/%d", v.Validations, v.Conflicts)
	}
}

func TestValidateDetectsConflict(t *testing.T) {
	v := NewValidator(10)
	ops := writes(5)
	snapA := v.ReadSet(ops, nil)
	snapB := v.ReadSet(ops, nil)
	if !v.Validate(ops, snapA) {
		t.Fatal("first writer should commit")
	}
	if v.Validate(ops, snapB) {
		t.Fatal("second writer read a stale version and must fail")
	}
	if v.Conflicts != 1 {
		t.Fatalf("conflicts = %d", v.Conflicts)
	}
	// After re-reading, the restarted transaction commits.
	snapB2 := v.ReadSet(ops, snapB[:0]) // the restarted attempt refills its vector
	if !v.Validate(ops, snapB2) {
		t.Fatal("restarted transaction should commit")
	}
	if v.Version(5) != 2 {
		t.Fatalf("version = %d", v.Version(5))
	}
}

func TestReadOnlyTransactionsNeverConflictWithEachOther(t *testing.T) {
	v := NewValidator(4)
	ops := reads(0, 1, 2, 3)
	s1 := v.ReadSet(ops, nil)
	s2 := v.ReadSet(ops, nil)
	if !v.Validate(ops, s1) || !v.Validate(ops, s2) {
		t.Fatal("read-only transactions conflicted")
	}
}

// Property: serial validation order defines a serializable history —
// every committed transaction saw the versions current at its commit
// point, i.e. a snapshot that no committed writer invalidated.
func TestSerialValidationProperty(t *testing.T) {
	type step struct {
		Obj   uint8
		Write bool
		Stale bool // validate against an old snapshot
	}
	f := func(steps []step) bool {
		v := NewValidator(8)
		old := v.ReadSet(reads(0, 1, 2, 3, 4, 5, 6, 7), nil)
		for _, st := range steps {
			obj := lockmgr.ObjectID(st.Obj % 8)
			ops := []txn.Op{{Obj: obj, Write: st.Write}}
			var snap []int64
			if st.Stale {
				snap = []int64{old[obj]}
			} else {
				snap = v.ReadSet(ops, nil)
			}
			committed := v.Validate(ops, snap)
			current := v.Version(obj)
			if committed && st.Write && current == snap[0] {
				return false // write committed without bumping
			}
			if !committed && snap[0] == current {
				return false // rejected although the snapshot was current
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
