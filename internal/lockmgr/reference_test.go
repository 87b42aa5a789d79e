package lockmgr

import (
	"cmp"
	"slices"
	"time"
)

// refTable is the lock table written to be read, not to be fast: maps, no
// slabs, no per-owner index. It is the oracle FuzzLockTable runs the real
// Table against. What it keeps from the real one is the rule the edge set
// follows — an owner's wait-for edges are rebuilt only when one of its own
// requests leaves a queue — and the way they were rebuilt before the
// waiting index held requests: by scanning every queue for the owner's.
type refTable struct {
	holders map[ObjectID]map[OwnerID]Mode
	queues  map[ObjectID][]*refReq
	edges   map[OwnerID]map[OwnerID]bool
	seq     int
}

// refReq is a request as the reference sees it; id pairs it with the real
// table's (Request.Tag).
type refReq struct {
	id       int64
	obj      ObjectID
	owner    OwnerID
	mode     Mode
	deadline time.Duration
	seq      int
	queued   bool
}

func newRefTable() *refTable {
	return &refTable{
		holders: map[ObjectID]map[OwnerID]Mode{},
		queues:  map[ObjectID][]*refReq{},
		edges:   map[OwnerID]map[OwnerID]bool{},
	}
}

// conflicts returns, ascending, the holders of obj that bar owner from mode.
func (t *refTable) conflicts(obj ObjectID, owner OwnerID, mode Mode) []OwnerID {
	var out []OwnerID
	for h, m := range t.holders[obj] {
		if h != owner && !Compatible(mode, m) {
			out = append(out, h)
		}
	}
	slices.Sort(out)
	return out
}

func (t *refTable) hold(obj ObjectID, owner OwnerID, mode Mode) {
	if t.holders[obj] == nil {
		t.holders[obj] = map[OwnerID]Mode{}
	}
	t.holders[obj][owner] = mode
}

func (t *refTable) lock(r *refReq) (Outcome, []OwnerID) {
	held := t.holders[r.obj][r.owner]
	if held == r.mode || held == ModeExclusive {
		return Granted, nil
	}
	conf := t.conflicts(r.obj, r.owner, r.mode)
	if len(conf) == 0 {
		behind := false
		for _, q := range t.queues[r.obj] {
			behind = behind || q.owner != r.owner && !Compatible(r.mode, q.mode)
		}
		if held != 0 || !behind {
			t.hold(r.obj, r.owner, r.mode)
			return Granted, nil
		}
	} else if t.reaches(conf, r.owner, map[OwnerID]bool{}) {
		return Deadlock, conf
	}
	t.seq++
	r.seq, r.queued = t.seq, true
	q := append(t.queues[r.obj], r)
	slices.SortStableFunc(q, func(a, b *refReq) int {
		return cmp.Or(cmp.Compare(a.deadline, b.deadline), cmp.Compare(a.seq, b.seq))
	})
	t.queues[r.obj] = q
	if t.edges[r.owner] == nil {
		t.edges[r.owner] = map[OwnerID]bool{}
	}
	for _, h := range conf {
		t.edges[r.owner][h] = true
	}
	return Queued, conf
}

// reaches reports whether owner can be reached from any of from along
// the wait-for edges.
func (t *refTable) reaches(from []OwnerID, owner OwnerID, seen map[OwnerID]bool) bool {
	for _, f := range from {
		if f == owner {
			return true
		}
		if seen[f] {
			continue
		}
		seen[f] = true
		var next []OwnerID
		for to := range t.edges[f] {
			next = append(next, to)
		}
		if t.reaches(next, owner, seen) {
			return true
		}
	}
	return false
}

// rebuildEdges is the scan: every queue is searched for owner's requests,
// and each adds an edge to every holder that bars it now.
func (t *refTable) rebuildEdges(owner OwnerID) {
	delete(t.edges, owner)
	for obj, queue := range t.queues {
		for _, q := range queue {
			if q.owner != owner {
				continue
			}
			for _, h := range t.conflicts(obj, owner, q.mode) {
				if t.edges[owner] == nil {
					t.edges[owner] = map[OwnerID]bool{}
				}
				t.edges[owner][h] = true
			}
		}
	}
}

// admit grants obj's queue from the head until a request conflicts, and
// returns the ids granted.
func (t *refTable) admit(obj ObjectID) []int64 {
	var granted []int64
	for len(t.queues[obj]) > 0 {
		r := t.queues[obj][0]
		if len(t.conflicts(obj, r.owner, r.mode)) > 0 {
			break
		}
		t.queues[obj] = t.queues[obj][1:]
		r.queued = false
		t.hold(obj, r.owner, r.mode)
		t.rebuildEdges(r.owner)
		granted = append(granted, r.id)
	}
	return granted
}

func (t *refTable) release(obj ObjectID, owner OwnerID) []int64 {
	if _, ok := t.holders[obj][owner]; !ok {
		return nil
	}
	delete(t.holders[obj], owner)
	return t.admit(obj)
}

func (t *refTable) downgrade(obj ObjectID, owner OwnerID) []int64 {
	if t.holders[obj][owner] != ModeExclusive {
		return nil
	}
	t.holders[obj][owner] = ModeShared
	return t.admit(obj)
}

func (t *refTable) releaseAll(owner OwnerID) []int64 {
	var objs []ObjectID
	for obj, hs := range t.holders {
		if _, ok := hs[owner]; ok {
			objs = append(objs, obj)
		}
	}
	slices.Sort(objs)
	var granted []int64
	for _, obj := range objs {
		granted = append(granted, t.release(obj, owner)...)
	}
	return granted
}

func (t *refTable) cancel(r *refReq) []int64 {
	if !r.queued {
		return nil
	}
	r.queued = false
	i := slices.Index(t.queues[r.obj], r)
	t.queues[r.obj] = slices.Delete(t.queues[r.obj], i, i+1)
	t.rebuildEdges(r.owner)
	return t.admit(r.obj)
}

// edgeList returns owner's edge set in ascending order, nil when empty.
func (t *refTable) edgeList(owner OwnerID) []OwnerID {
	var out []OwnerID
	for to := range t.edges[owner] {
		out = append(out, to)
	}
	slices.Sort(out)
	return out
}
