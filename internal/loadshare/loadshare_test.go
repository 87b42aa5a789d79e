package loadshare

import (
	"testing"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/txn"
)

func TestH1Feasible(t *testing.T) {
	now := 100 * time.Second
	if !H1Feasible(now, 2, 10*time.Second, 120*time.Second) {
		t.Fatal("boundary case should be feasible")
	}
	if H1Feasible(now, 3, 10*time.Second, 120*time.Second) {
		t.Fatal("over-full queue should be infeasible")
	}
}

func conflict(obj int, holders ...netsim.SiteID) proto.ObjConflict {
	return proto.ObjConflict{Obj: lockmgr.ObjectID(obj), Holders: holders}
}

func TestConflictsAt(t *testing.T) {
	conflicts := []proto.ObjConflict{
		conflict(1, 2),    // solely held by site 2
		conflict(2, 2, 3), // held by 2 and 3
		conflict(3, 4),    // solely held by site 4
	}
	if n := ConflictsAt(1, conflicts); n != 3 {
		t.Fatalf("origin conflicts = %d, want 3", n)
	}
	if n := ConflictsAt(2, conflicts); n != 2 {
		t.Fatalf("site2 conflicts = %d, want 2 (obj1 resolved)", n)
	}
	if n := ConflictsAt(4, conflicts); n != 2 {
		t.Fatalf("site4 conflicts = %d, want 2 (obj3 resolved)", n)
	}
}

func TestChooseSitePrefersFewestConflicts(t *testing.T) {
	d := ChooseSite(Params{
		Origin:   1,
		Now:      0,
		Deadline: time.Hour,
		Conflicts: []proto.ObjConflict{
			conflict(1, 2), conflict(2, 2), conflict(3, 3),
		},
		Loads:     map[netsim.SiteID]proto.LoadReport{},
		OriginATL: 10 * time.Second,
	})
	if !d.Ship || d.Target != 2 {
		t.Fatalf("decision = %+v, want ship to 2", d)
	}
	if d.Conflicts != 1 {
		t.Fatalf("conflicts at target = %d, want 1", d.Conflicts)
	}
}

func TestChooseSiteRequireImprovementKeepsOrigin(t *testing.T) {
	// Every conflicted object is multi-held: no site improves on the
	// origin's conflict count, so with RequireImprovement the origin
	// wins.
	d := ChooseSite(Params{
		Origin:             1,
		Deadline:           time.Hour,
		Conflicts:          []proto.ObjConflict{conflict(1, 2, 3), conflict(2, 3, 4)},
		Loads:              map[netsim.SiteID]proto.LoadReport{},
		OriginATL:          10 * time.Second,
		RequireImprovement: true,
	})
	if d.Ship {
		t.Fatalf("decision = %+v, want stay at origin", d)
	}
}

func TestChooseSiteTieBreaksByLoad(t *testing.T) {
	loads := map[netsim.SiteID]proto.LoadReport{
		2: {Client: 2, QueueLen: 5, ATL: 10 * time.Second, Valid: true},
		3: {Client: 3, QueueLen: 1, ATL: 10 * time.Second, Valid: true},
	}
	d := ChooseSite(Params{
		Origin:   1,
		Deadline: 10 * time.Hour,
		Conflicts: []proto.ObjConflict{
			conflict(1, 2), conflict(2, 3), // both sites resolve one conflict each
		},
		Loads:          loads,
		OriginQueueLen: 9,
		OriginATL:      10 * time.Second,
	})
	if d.Target != 3 {
		t.Fatalf("target = %v, want 3 (lighter load)", d.Target)
	}
}

func TestChooseSiteSkipsInfeasibleCandidates(t *testing.T) {
	loads := map[netsim.SiteID]proto.LoadReport{
		2: {Client: 2, QueueLen: 100, ATL: 10 * time.Second, Valid: true},
	}
	d := ChooseSite(Params{
		Origin:    1,
		Now:       0,
		Deadline:  30 * time.Second, // site 2 would need 1010s
		Conflicts: []proto.ObjConflict{conflict(1, 2)},
		Loads:     loads,
		OriginATL: 10 * time.Second,
	})
	if d.Ship {
		t.Fatalf("decision = %+v, want origin (candidate infeasible)", d)
	}
}

func TestChooseSiteNoConflictsStaysHome(t *testing.T) {
	d := ChooseSite(Params{
		Origin:    7,
		Deadline:  time.Hour,
		Loads:     map[netsim.SiteID]proto.LoadReport{},
		OriginATL: time.Second,
	})
	if d.Ship || d.Target != 7 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestChooseSiteDeterministicTieBreak(t *testing.T) {
	for i := 0; i < 5; i++ {
		d := ChooseSite(Params{
			Origin:    1,
			Deadline:  time.Hour,
			Conflicts: []proto.ObjConflict{conflict(1, 3), conflict(2, 2)},
			Loads:     map[netsim.SiteID]proto.LoadReport{},
			OriginATL: time.Second,
		})
		if d.Target != 2 {
			t.Fatalf("tie break chose %v, want lowest id 2", d.Target)
		}
	}
}

func TestGroupByLocation(t *testing.T) {
	locations := []proto.ObjConflict{
		conflict(10, 5),
		conflict(11, 5),
		conflict(12, 6),
		// 13 unlocated -> origin
	}
	partOf, siteOf := groupByLocation(1, []lockmgr.ObjectID{10, 11, 12, 13}, locations)
	if partOf[0] != partOf[1] {
		t.Fatal("objects at the same site should share a group")
	}
	if partOf[0] == partOf[2] || partOf[2] == partOf[3] {
		t.Fatal("objects at different sites should not share a group")
	}
	if siteOf[partOf[0]] != 5 || siteOf[partOf[2]] != 6 || siteOf[partOf[3]] != 1 {
		t.Fatalf("siteOf mapping wrong: %v", siteOf)
	}
}

// groupByLocation groups reads of objs on a fresh Grouping.
func groupByLocation(origin netsim.SiteID, objs []lockmgr.ObjectID, locations []proto.ObjConflict) ([]int, []netsim.SiteID) {
	ops := make([]txn.Op, len(objs))
	for i, obj := range objs {
		ops[i].Obj = obj
	}
	var g Grouping
	g.ByLocation(origin, ops, locations)
	return g.Of, g.Site
}

func TestGroupByLocationMultiHolderGoesToOrigin(t *testing.T) {
	objs := []lockmgr.ObjectID{10}
	locations := []proto.ObjConflict{conflict(10, 5, 6)}
	partOf, siteOf := groupByLocation(1, objs, locations)
	if siteOf[partOf[0]] != 1 {
		t.Fatal("multi-holder object should group at origin")
	}
}

func TestGroupByLocationIgnoresShardHolders(t *testing.T) {
	// A replicated object reports its replica shard (site id <= 0)
	// among the holders. Shards are not execution sites: a sole client
	// holder still claims the group, and an object held only by shards
	// falls back to the origin.
	objs := []lockmgr.ObjectID{10, 11}
	locations := []proto.ObjConflict{
		conflict(10, 5, -1), // client 5 plus replica shard 1
		conflict(11, -1),    // replica shard only
	}
	partOf, siteOf := groupByLocation(1, objs, locations)
	if siteOf[partOf[0]] != 5 {
		t.Fatalf("replicated object grouped at %d, want sole client holder 5", siteOf[partOf[0]])
	}
	if siteOf[partOf[1]] != 1 {
		t.Fatalf("shard-only object grouped at %d, want origin", siteOf[partOf[1]])
	}
}

func TestGroupByLocationMultiClientWithShardGoesToOrigin(t *testing.T) {
	// Several client holders plus a shard: still ambiguous, still the
	// origin's group.
	objs := []lockmgr.ObjectID{10}
	locations := []proto.ObjConflict{conflict(10, 5, 6, -2)}
	partOf, siteOf := groupByLocation(1, objs, locations)
	if siteOf[partOf[0]] != 1 {
		t.Fatal("multi-client replicated object should group at origin")
	}
}

func TestChooseSiteNeverShipsToShard(t *testing.T) {
	// A replica shard among the conflict holders would rank first on
	// the conflict count; it must be excluded from the candidate set.
	d := ChooseSite(Params{
		Origin:   1,
		Deadline: time.Hour,
		Conflicts: []proto.ObjConflict{
			conflict(10, -1),
			conflict(11, -1),
		},
		OriginQueueLen: 3,
		OriginATL:      time.Second,
	})
	if d.Ship || d.Target != 1 {
		t.Fatalf("decision = %+v, want origin (shards are not execution sites)", d)
	}
}

func TestChooseSiteDataCountsOverride(t *testing.T) {
	// The server's whole-access-set counts outrank location-derived
	// tallies when larger.
	d := ChooseSite(Params{
		Origin:    1,
		Deadline:  time.Hour,
		Conflicts: []proto.ObjConflict{conflict(1, 2), conflict(2, 3)},
		Loads:     map[netsim.SiteID]proto.LoadReport{},
		DataCounts: map[netsim.SiteID]int{
			3: 7, // site 3 holds far more of the data
		},
		OriginATL: time.Second,
	})
	if d.Target != 3 {
		t.Fatalf("target = %v, want 3 (richer data)", d.Target)
	}
}

func TestChooseSiteMinShipDataGate(t *testing.T) {
	params := Params{
		Origin:             1,
		Deadline:           time.Hour,
		Conflicts:          []proto.ObjConflict{conflict(1, 2)},
		Loads:              map[netsim.SiteID]proto.LoadReport{},
		DataCounts:         map[netsim.SiteID]int{2: 2},
		OriginATL:          time.Second,
		RequireImprovement: true,
		MinShipData:        3,
	}
	if d := ChooseSite(params); d.Ship {
		t.Fatalf("gate ignored: %+v", d)
	}
	params.MinShipData = 2
	if d := ChooseSite(params); !d.Ship || d.Target != 2 {
		t.Fatalf("gate too strict: %+v", d)
	}
}

func TestChooseSiteExecutorsScaleWait(t *testing.T) {
	// With more executors the same queue implies less wait, keeping a
	// busy-but-parallel site feasible.
	base := Params{
		Origin:    1,
		Now:       0,
		Deadline:  30 * time.Second,
		Conflicts: []proto.ObjConflict{conflict(1, 2)},
		Loads: map[netsim.SiteID]proto.LoadReport{
			2: {Client: 2, QueueLen: 8, ATL: 10 * time.Second, Valid: true},
		},
		OriginATL: 10 * time.Second,
	}
	base.Executors = 1
	if d := ChooseSite(base); d.Ship {
		t.Fatalf("serial site should be infeasible: %+v", d)
	}
	base.Executors = 8
	if d := ChooseSite(base); !d.Ship {
		t.Fatalf("parallel site should be feasible: %+v", d)
	}
}

// A candidate whose load report is missing or stale (Valid false) must
// still clear H1 — with OriginATL substituted for its unknown ATL and an
// empty queue assumed — before it may compete. Without the substitute
// check, an unknown-load site skips the feasibility filter entirely,
// enters with wait = 0, and beats the origin on every queueing-delay
// tie even when the deadline leaves no room to execute there at all.
func TestChooseSiteUnknownLoadStillH1Filtered(t *testing.T) {
	base := Params{
		Origin: 1,
		Now:    0,
		// One ATL from now already overruns the deadline: no remote
		// site can serve this transaction in time.
		Deadline:  5 * time.Second,
		Conflicts: []proto.ObjConflict{conflict(1, 2)},
		OriginATL: 10 * time.Second,
	}
	cases := map[string]map[netsim.SiteID]proto.LoadReport{
		"missing report": {},
		"stale report":   {2: {Client: 2, QueueLen: 0, ATL: 10 * time.Second, Valid: false}},
	}
	for name, loads := range cases {
		p := base
		p.Loads = loads
		if d := ChooseSite(p); d.Ship {
			t.Errorf("%s: decision = %+v, want origin (site 2 cannot meet the deadline)", name, d)
		}
	}
	// A generous deadline keeps the unknown-load candidate eligible:
	// the substitute check must not turn "unknown" into "infeasible".
	p := base
	p.Loads = map[netsim.SiteID]proto.LoadReport{}
	p.Deadline = time.Hour
	if d := ChooseSite(p); !d.Ship || d.Target != 2 {
		t.Errorf("generous deadline: decision = %+v, want ship to 2", d)
	}
}
