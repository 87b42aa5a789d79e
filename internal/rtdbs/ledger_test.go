package rtdbs

import (
	"strings"
	"testing"

	"siteselect/internal/txn"
)

// TestConservationCatchesMiscountedRetirement runs a client-server cell
// three ways and checks transaction conservation at the end of each: as
// built, where it holds; with the first transaction retired after the
// warm-up counted a second time, and with a transaction that finished
// as it did but whose retirement was skipped — left uncounted on the
// maker's list — where it must fail. (A second retirement by a site's
// own retire point fails at once: the maker's Forget panics. The
// mutations act from the step hook, so the cell runs without the
// monitor that Run would attach.)
func TestConservationCatchesMiscountedRetirement(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *Cluster, tx *txn.Transaction)
		want   string // in the check's error; "" for none
	}{
		{"as-built", nil, ""},
		{"retired-twice", func(c *Cluster, tx *txn.Transaction) {
			c.m.Retire(tx, c.cfg.Warmup)
		}, "accounted for"},
		{"retirement-skipped", func(c *Cluster, tx *txn.Transaction) {
			x := c.txns.New(len(tx.Ops))
			x.Origin, x.Arrival, x.Status, x.Finished = tx.Origin, tx.Arrival, tx.Status, tx.Finished
		}, "never retired"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewClientServer(smallConfig(8, 0.20))
			if err != nil {
				t.Fatal(err)
			}
			mutated := false
			watchLists(c.env, c.eachInFlight, nil, func(tx *txn.Transaction) {
				if tc.mutate != nil && !mutated && tx.Arrival >= c.cfg.Warmup {
					mutated = true
					tc.mutate(c, tx)
				}
			})
			c.Start()
			c.env.Run(c.cfg.Duration + c.cfg.Drain)
			res := c.collect()
			c.env.Close()
			if res.M.Submitted == 0 || tc.mutate != nil && !mutated {
				t.Fatalf("nothing to check: %d submitted, mutated %v", res.M.Submitted, mutated)
			}
			err = c.ledger.verify(c.m, c.txns)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("conservation fails as built: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("conservation check gave %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
