package trace

import (
	"fmt"
	"io"
	"strings"
	"time"

	"siteselect/internal/txn"
)

// MissTable aggregates missed transactions by the dominant component of
// their slack attribution — where the deadline budget mostly went.
type MissTable struct {
	// Missed counts the missed transactions attributed.
	Missed int64
	// ByCause counts missed transactions per dominant component.
	ByCause [NumComponents]int64
}

// Add merges o into m.
func (m *MissTable) Add(o *MissTable) {
	if o == nil {
		return
	}
	m.Missed += o.Missed
	for c := range o.ByCause {
		m.ByCause[c] += o.ByCause[c]
	}
}

// Share returns component c's fraction of the missed transactions (zero
// on the nil table of an untraced run).
func (m *MissTable) Share(c Component) float64 {
	if m == nil || m.Missed == 0 {
		return 0
	}
	return float64(m.ByCause[c]) / float64(m.Missed)
}

// String renders the table as "cause count (percent)" rows.
func (m *MissTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "missed transactions by dominant cause (%d total)\n", m.Missed)
	for c := Component(0); c < NumComponents; c++ {
		fmt.Fprintf(&b, "  %-10s %7d  (%5.1f%%)\n", c.String(), m.ByCause[c], 100*m.Share(c))
	}
	return b.String()
}

// MissCauses classifies every finished missed transaction that arrived
// at or after warmup by its dominant attribution component.
func (tr *Tracer) MissCauses(warmup time.Duration) *MissTable {
	if tr == nil {
		return nil
	}
	m := &MissTable{}
	for _, tt := range tr.order {
		if !tt.Done || tt.Status != txn.StatusMissed || tt.Arrival < warmup {
			continue
		}
		m.Missed++
		m.ByCause[tt.DominantCause()]++
	}
	return m
}

// WriteAttribution writes the slack attribution report: one row per
// finished missed transaction (arrival at or after warmup, at most max
// rows; max <= 0 means all), with the per-component breakdown of its
// elapsed time and the aggregate miss-cause table.
func (tr *Tracer) WriteAttribution(w io.Writer, warmup time.Duration, max int) error {
	if tr == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-8s %-6s %12s %12s  %-9s  breakdown\n",
		"txn", "origin", "slack", "elapsed", "dominant"); err != nil {
		return err
	}
	rows := 0
	total := 0
	for _, tt := range tr.order {
		if !tt.Done || tt.Status != txn.StatusMissed || tt.Arrival < warmup {
			continue
		}
		total++
		if max > 0 && rows >= max {
			continue
		}
		rows++
		var parts []string
		for c := Component(0); c < NumComponents; c++ {
			if tt.Buckets[c] > 0 {
				parts = append(parts, fmt.Sprintf("%s=%v", c, tt.Buckets[c].Round(time.Microsecond)))
			}
		}
		if tt.BatchWait > 0 {
			// Itemized sub-bucket of lock-wait/network (see
			// TxnTrace.BatchWait); shown only when batching is on so
			// window-0 reports stay byte-identical.
			parts = append(parts, fmt.Sprintf("batch-wait=%v", tt.BatchWait.Round(time.Microsecond)))
		}
		if _, err := fmt.Fprintf(w, "%-8d %-6d %12v %12v  %-9s  %s\n",
			tt.ID, tt.Origin, tt.Deadline-tt.Arrival, tt.Elapsed(),
			tt.DominantCause(), strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	if max > 0 && total > rows {
		if _, err := fmt.Fprintf(w, "... %d more missed transactions\n", total-rows); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, tr.MissCauses(warmup).String())
	return err
}
