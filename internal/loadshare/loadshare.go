// Package loadshare implements the decision logic of the paper's
// Section 4 load-sharing algorithm:
//
//   - H1 — can transaction T still make its deadline at this site, given
//     the queue ahead of it and the site's observed average transaction
//     length (ATL)?
//   - H2 — which site would have to wait for the fewest conflicting
//     locks to run T, breaking ties by estimated queueing delay?
//   - decomposition grouping — partition a decomposable transaction's
//     accesses by the sites currently caching them.
//
// The functions here are pure: the client actor supplies the state
// (conflict locations from the server, piggybacked load reports) and
// acts on the returned decision, so the heuristics are directly unit
// testable and reusable across configurations.
package loadshare

import (
	"slices"
	"time"

	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/sched"
	"siteselect/internal/txn"
)

// H1Feasible evaluates heuristic H1 at a site: with queueLen
// transactions ahead and observed mean length atl, a transaction with
// the given absolute deadline has a reasonable chance of completing iff
// now + queueLen·atl ≤ deadline.
func H1Feasible(now time.Duration, queueLen int, atl, deadline time.Duration) bool {
	return sched.FeasibleH1(now, queueLen, atl, deadline)
}

// ConflictsAt returns how many of the conflicted objects would still
// require waiting for another site's locks if the transaction executed
// at site: an object stops conflicting only when site is its sole
// conflicting holder (its locks become local).
func ConflictsAt(site netsim.SiteID, conflicts []proto.ObjConflict) int {
	n := 0
	for _, c := range conflicts {
		resolved := len(c.Holders) == 1 && c.Holders[0] == site
		if !resolved {
			n++
		}
	}
	return n
}

// Decision is the outcome of a site-selection evaluation.
type Decision struct {
	// Target is the chosen execution site.
	Target netsim.SiteID
	// Ship is true when Target differs from the origin.
	Ship bool
	// Conflicts is the H2 conflict count at Target.
	Conflicts int
}

// Params carries the inputs to site selection.
type Params struct {
	Origin netsim.SiteID
	// Now and Deadline bound the feasibility checks.
	Now      time.Duration
	Deadline time.Duration
	// Conflicts lists the objects the server reported as conflicted,
	// with their conflicting holders (the H1-passed branch: a tentative
	// probe came back with conflict locations).
	Conflicts []proto.ObjConflict
	// Locations lists where the transaction's objects are cached in any
	// mode (the H1-failed branch: a location query came back). A site
	// holding many of the objects can serve them locally.
	Locations []proto.ObjConflict
	// Loads holds the known load reports (piggybacked at the server) of
	// candidate sites; missing entries are treated as unloaded.
	Loads map[netsim.SiteID]proto.LoadReport
	// OriginQueueLen and OriginATL describe the origin directly (the
	// client knows its own state more freshly than the server does).
	// Queue lengths count waiting transactions only; Executors divides
	// the estimated wait across a site's concurrent executor slots.
	OriginQueueLen int
	OriginATL      time.Duration
	Executors      int
	// DataCounts, when provided, overrides the location-derived data
	// availability per site (e.g. the server's whole-access-set counts
	// in a ConflictReply).
	DataCounts map[netsim.SiteID]int
	// RequireImprovement makes the origin win unless some site has
	// strictly fewer conflicts (the H1-passed branch of the pseudocode:
	// "IF another client is in a better position (H2) THEN ship").
	RequireImprovement bool
	// MinShipData additionally refuses to ship unless the target caches
	// at least this many of the transaction's objects — Section 3.1's
	// "significant percentage of a transaction's required data is
	// already cached at another site" condition. Zero disables the
	// check.
	MinShipData int
	// Trace, when set, observes the final decision (tracing).
	Trace func(Decision)
	// Scratch, when set, is the caller's reusable working memory: with the
	// same one each time a decision allocates nothing. Nil: one is made.
	Scratch *Scratch
}

// Scratch is ChooseSite's working memory, reusable across decisions.
type Scratch struct {
	holders []netsim.SiteID
}

// cand is one candidate execution site as H2 ranks it.
type cand struct {
	site      netsim.SiteID
	conflicts int
	data      int
	wait      time.Duration
}

// better reports whether c ranks above best.
func (c cand) better(best cand) bool {
	switch {
	case c.conflicts != best.conflicts:
		return c.conflicts < best.conflicts
	case c.data != best.data:
		return c.data > best.data
	case c.wait != best.wait:
		return c.wait < best.wait
	}
	return c.site < best.site
}

// ChooseSite evaluates H2 over the candidate sites (every reported
// holder, plus the origin) and returns the best execution site for the
// transaction.
//
// Ranking: fewest remaining lock conflicts first (H2 proper), then most
// of the transaction's data cached locally, then smallest estimated
// queueing delay (queue length × ATL / executors, per the load table),
// then lowest site id for determinism. Candidates whose queue fails H1
// feasibility are discarded (a site that cannot meet the deadline is
// never "in a better position").
func ChooseSite(p Params) Decision {
	execs := max(p.Executors, 1)
	sc := p.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	// dataAt is how much of the access set site caches: the larger of
	// what the locations show and what the server counted.
	dataAt := func(site netsim.SiteID) int {
		n := 0
		for _, loc := range p.Locations {
			if slices.Contains(loc.Holders, site) { // an object's holders are distinct
				n++
			}
		}
		return max(n, p.DataCounts[site])
	}
	origin := cand{
		site:      p.Origin,
		conflicts: ConflictsAt(p.Origin, p.Conflicts),
		data:      dataAt(p.Origin),
		wait:      time.Duration(p.OriginQueueLen) * p.OriginATL / time.Duration(execs),
	}
	holders := sc.holders[:0]
	for _, list := range [2][]proto.ObjConflict{p.Conflicts, p.Locations} {
		for _, c := range list {
			holders = append(holders, c.Holders...)
		}
	}
	slices.Sort(holders)
	sc.holders = holders
	best := origin
	for i, h := range holders {
		// Server shards (site ids <= 0) can appear among reported holders
		// when an object has a read replica out; they are lock holders,
		// not execution sites, and never ship targets.
		if h <= netsim.ServerSite || h == p.Origin || i > 0 && h == holders[i-1] {
			continue
		}
		load, known := p.Loads[h]
		wait := time.Duration(0)
		atl := p.OriginATL
		if known && load.Valid {
			if load.ATL > 0 {
				atl = load.ATL
			}
			wait = time.Duration(load.QueueLen) * atl / time.Duration(execs)
		}
		// A shipped transaction joins the back of the candidate's
		// queue: H1 with one extra waiter. With no (valid) load report
		// the site is assumed idle but must still fit one execution at
		// the origin's observed ATL before the deadline — an unknown
		// load is not a license to skip feasibility.
		if p.Now+wait+atl > p.Deadline {
			continue
		}
		c := cand{site: h, conflicts: ConflictsAt(h, p.Conflicts), data: dataAt(h), wait: wait}
		if c.better(best) {
			best = c
		}
	}
	if best.site != p.Origin {
		if p.RequireImprovement && best.conflicts >= origin.conflicts {
			best = origin
		} else if p.MinShipData > 0 && best.data < p.MinShipData {
			best = origin
		}
	}
	d := Decision{Target: best.site, Ship: best.site != p.Origin, Conflicts: best.conflicts}
	if p.Trace != nil {
		p.Trace(d)
	}
	return d
}

// Grouping is the decomposition partition of Section 3.2, reusable from
// one transaction to the next: Of maps an access (by its index among the
// ops) to its group, as txn.Transaction.Decompose takes it; Site maps a
// group to the site that should execute it.
type Grouping struct {
	Of   []int
	Site []netsim.SiteID
}

// ByLocation groups each access by the client site that solely caches
// its object (reported in locations), with unlocated accesses grouped at
// the origin. Server shards among the holders (site ids <= 0, from read
// replicas) are not candidate executors and are ignored, so a
// replicated object still groups at its sole client holder; an object
// held by several clients falls back to the origin. Groups number the
// sites in the order the accesses first name them.
func (g *Grouping) ByLocation(origin netsim.SiteID, ops []txn.Op, locations []proto.ObjConflict) {
	g.Of, g.Site = g.Of[:0], g.Site[:0]
	for _, op := range ops {
		site := origin
		for _, loc := range locations {
			if loc.Obj != op.Obj {
				continue
			}
			sole, clients := netsim.SiteID(0), 0
			for _, h := range loc.Holders {
				if h > netsim.ServerSite {
					clients++
					sole = h
				}
			}
			if clients == 1 {
				site = sole
			}
		}
		k := slices.Index(g.Site, site)
		if k < 0 {
			k = len(g.Site)
			g.Site = append(g.Site, site)
		}
		g.Of = append(g.Of, k)
	}
}
