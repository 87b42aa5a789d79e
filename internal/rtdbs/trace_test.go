package rtdbs

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"siteselect/internal/config"
)

// TestTraceZeroPerturbation verifies that turning tracing on does not
// change the simulation: a traced run and an untraced run with the same
// seed produce identical metrics (the tracer only observes).
func TestTraceZeroPerturbation(t *testing.T) {
	for _, sys := range []string{"cs", "ls"} {
		t.Run(sys, func(t *testing.T) {
			run := func(traced bool) string {
				cfg := smallConfig(6, 0.20)
				cfg.Trace = traced
				var (
					c   *Cluster
					err error
				)
				if sys == "cs" {
					c, err = NewClientServer(cfg)
				} else {
					c, err = NewLoadSharing(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				return fingerprint(res)
			}
			off, on := run(false), run(true)
			if off != on {
				t.Fatalf("tracing perturbed the run:\n  off=%s\n  on= %s", off, on)
			}
		})
	}
}

// TestTraceAttributionEndToEnd runs a traced load-sharing cluster with
// the continuous invariant monitor (which includes the per-step
// slack-attribution check) and verifies the aggregate properties: every
// finished trace's buckets sum to its elapsed time, and the miss-cause
// table accounts for exactly the missed transactions the metrics report.
func TestTraceAttributionEndToEnd(t *testing.T) {
	cfg := faultyConfig(6, 0.20)
	cfg.Trace = true
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatalf("traced run failed audit: %v", err)
	}
	tr := ls.Tracer()
	if tr == nil {
		t.Fatal("Tracer() nil on a traced cluster")
	}
	if err := tr.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if res.M.Committed+res.M.Missed == 0 {
		t.Fatal("no finished traces")
	}
	if res.MissCauses == nil {
		t.Fatal("MissCauses nil on a traced run")
	}
	if res.MissCauses.Missed != res.M.Missed {
		t.Fatalf("miss-cause table counts %d missed, metrics report %d",
			res.MissCauses.Missed, res.M.Missed)
	}
	var byCause int64
	for _, n := range res.MissCauses.ByCause {
		byCause += n
	}
	if byCause != res.MissCauses.Missed {
		t.Fatalf("cause rows sum to %d, want %d", byCause, res.MissCauses.Missed)
	}
}

// TestTraceFaultyRunRetryAttribution verifies that under fault
// injection, client retransmissions show up in the retry bucket — and
// that the attribution identity survives retries, backoff, and shipped
// transactions (Run's VerifyAll plus the continuous monitor enforce it).
func TestTraceFaultyRunRetryAttribution(t *testing.T) {
	cfg := faultyConfig(6, 0.20)
	cfg.Trace = true
	cfg.Faults = config.FaultSpec{
		DropRate:     0.1,
		DupRate:      0.08,
		SpikeRate:    0.08,
		SpikeLatency: 5 * time.Millisecond,
	}
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatalf("traced faulty run failed audit: %v", err)
	}
	if res.Retries == 0 {
		t.Fatal("fault injection produced no retries; test is vacuous")
	}
	// A retry interval is exported as a "retry" phase span, and only
	// when the retry bucket gained time.
	var out strings.Builder
	if err := ls.Tracer().WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"name":"retry","cat":"phase"`) {
		t.Fatal("retries happened but no trace carries retry-bucket time")
	}
}

// TestTraceUntracedClusterInert pins the off state: no tracer object, no
// miss-cause table, and nil-tracer accessors are safe.
func TestTraceUntracedClusterInert(t *testing.T) {
	ls, err := NewLoadSharing(smallConfig(4, 0.20))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ls.Tracer() != nil {
		t.Fatal("untraced cluster has a tracer")
	}
	if res.MissCauses != nil {
		t.Fatal("untraced run produced a miss-cause table")
	}
	if ls.Tracer().MissCauses(0) != nil || ls.Tracer().Enabled() {
		t.Fatal("nil tracer not inert")
	}
}

// TestTraceChromeDigest pins the Chrome export of a small fixed traced
// load-sharing run byte for byte — 285 transactions, about 13 800
// events interleaved across several of the tracer's log chunks: a change
// to how the tracer stores its events must not change what it writes.
func TestTraceChromeDigest(t *testing.T) {
	cfg := smallConfig(20, 0.20)
	cfg.Trace = true
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Run(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := ls.Tracer().WriteChrome(h); err != nil {
		t.Fatal(err)
	}
	const want = "eb14aedbe08a31447203995ea56d76aa7a62d3502ff09c5f576acff3a4702c1e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Chrome export digest %s, want %s", got, want)
	}
}
