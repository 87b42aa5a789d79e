package rtdbs

import (
	"fmt"
	"testing"
	"time"

	"siteselect/internal/config"
)

// occFingerprintConfig is a contended CE-OCC operating point: a shared
// hot region small enough that validation fails and restarts fire,
// ServerOpCPU > 0 so the CPU park points run, eight thread slots so
// admission times out, and a server buffer smaller than the hot set so
// reads evict and dirty pages write back.
func occFingerprintConfig(update float64) config.Config {
	cfg := CE.Default(24, update)
	cfg.Pattern = config.AccessHotCold
	cfg.ServerMemory = 48
	cfg.HotRegionSize = 60
	cfg.LocalFraction = 0.9
	cfg.ServerThreads = 8
	cfg.ServerOpCPU = 4 * time.Millisecond
	cfg.MeanInterArrival = 6 * time.Second
	cfg.MeanLength = 2 * time.Second
	cfg.MeanSlack = 3 * time.Second
	cfg.Duration = 6 * time.Minute
	cfg.Warmup = time.Minute
	cfg.Drain = time.Minute
	cfg.Seed = 11
	return cfg
}

// TestCentralizedOCCFingerprint pins CE-OCC's outcome counters, restart
// and validation counts, disk traffic, buffer hit rate and the kernel's
// executed-event count at three update mixes. The strings were generated
// on the goroutine-process implementation; the machine port must
// reproduce them exactly (same park points in the same order). The step
// counts are 2 861 lower than then, and every other field is the same,
// since terminals became event hooks: two spawns fewer for each of 24
// terminals, and no delivery or wake for each of 1 406 results; and one
// more since the server's dispatcher became its inbox's reader, adopted
// with no first resume.
func TestCentralizedOCCFingerprint(t *testing.T) {
	want := map[float64]string{
		0.05: "sub=1157 com=260 miss=897 restarts=2 val=338 conf=23 dr=5006 dw=122 hit=0.582416 msgs=2812 steps=35107",
		0.2:  "sub=1157 com=212 miss=945 restarts=22 val=332 conf=73 dr=5048 dw=433 hit=0.586805 msgs=2812 steps=36009",
		0.5:  "sub=1157 com=173 miss=984 restarts=26 val=332 conf=110 dr=4970 dw=862 hit=0.588133 msgs=2812 steps=36340",
	}
	for _, u := range []float64{0.05, 0.2, 0.5} {
		oc, err := NewCentralizedOCC(occFingerprintConfig(u))
		if err != nil {
			t.Fatal(err)
		}
		res, err := oc.Run()
		if err != nil {
			t.Fatal(err)
		}
		v := oc.valid
		got := fmt.Sprintf("sub=%d com=%d miss=%d restarts=%d val=%d conf=%d dr=%d dw=%d hit=%.6f msgs=%d steps=%d",
			res.M.Submitted, res.M.Committed, res.M.Missed, oc.Restarts,
			v.Validations, v.Conflicts, res.ServerDiskReads, res.ServerDiskWrites,
			res.ServerBufferHitRate, res.TotalMessages, oc.Env().Steps())
		if got != want[u] {
			t.Errorf("updates %g:\n got %s\nwant %s", u, got, want[u])
		}
	}
}

// TestCentralizedOCCHonoursFCFS: CE-OCC ranks its thread slots and CPU
// by arrival under FCFS, as CE-2PL and the clients do, and by deadline
// under EDF. At the contended operating point the two disciplines
// commit different numbers of transactions; an engine that ignored the
// setting would commit the same.
func TestCentralizedOCCHonoursFCFS(t *testing.T) {
	committed := map[config.SchedPolicy]int64{}
	for _, s := range []config.SchedPolicy{config.SchedEDF, config.SchedFCFS} {
		cfg := occFingerprintConfig(0.2)
		cfg.Scheduling = s
		oc, err := NewCentralizedOCC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := oc.Run()
		if err != nil {
			t.Fatal(err)
		}
		committed[s] = res.M.Committed
	}
	if committed[config.SchedEDF] != 212 || committed[config.SchedFCFS] != 124 {
		t.Errorf("committed %d under EDF and %d under FCFS, want 212 and 124",
			committed[config.SchedEDF], committed[config.SchedFCFS])
	}
}
