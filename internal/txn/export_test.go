package txn

import (
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/rng"
)

// NewGenerator returns a generator for origin on the system's maker.
func NewGenerator(stream *rng.Stream, origin netsim.SiteID, cfg WorkloadConfig, maker *Maker) *Generator {
	g := new(Generator)
	g.Init(stream, origin, cfg, maker)
	return g
}

// Objects returns the object ids accessed, in Ops order.
func (t *Transaction) Objects() []lockmgr.ObjectID {
	out := make([]lockmgr.ObjectID, len(t.Ops))
	for i, op := range t.Ops {
		out[i] = op.Obj
	}
	return out
}

// IsUpdate reports whether any access writes.
func (t *Transaction) IsUpdate() bool {
	for _, op := range t.Ops {
		if op.Write {
			return true
		}
	}
	return false
}

// MissedAt reports whether the deadline has passed at now.
func (t *Transaction) MissedAt(now time.Duration) bool { return now > t.Deadline }

// Slack returns the remaining time until the deadline (negative when
// missed).
func (t *Transaction) Slack(now time.Duration) time.Duration { return t.Deadline - now }
