package txn

import (
	"reflect"
	"testing"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/rng"
)

func TestOpMode(t *testing.T) {
	if (Op{Write: true}).Mode() != lockmgr.ModeExclusive {
		t.Fatal("write op should need EL")
	}
	if (Op{}).Mode() != lockmgr.ModeShared {
		t.Fatal("read op should need SL")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusPending: "pending", StatusRunning: "running",
		StatusCommitted: "committed", StatusMissed: "missed",
		StatusAborted: "aborted", Status(42): "Status(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func sample() *Transaction {
	return &Transaction{
		ID:       1,
		Arrival:  10 * time.Second,
		Deadline: 30 * time.Second,
		Length:   8 * time.Second,
		Ops: []Op{
			{Obj: 1}, {Obj: 2, Write: true}, {Obj: 3}, {Obj: 4},
		},
		Decomposable: true,
	}
}

func TestAccessors(t *testing.T) {
	tx := sample()
	objs := tx.Objects()
	if len(objs) != 4 || objs[1] != 2 {
		t.Fatalf("Objects = %v", objs)
	}
	if !tx.IsUpdate() {
		t.Fatal("IsUpdate should be true")
	}
	tx.Ops[1].Write = false
	if tx.IsUpdate() {
		t.Fatal("IsUpdate should be false")
	}
}

func TestDeadlineHelpers(t *testing.T) {
	tx := sample()
	if tx.MissedAt(30 * time.Second) {
		t.Fatal("deadline instant is not missed")
	}
	if !tx.MissedAt(30*time.Second + 1) {
		t.Fatal("past deadline should be missed")
	}
	if tx.Slack(20*time.Second) != 10*time.Second {
		t.Fatalf("Slack = %v", tx.Slack(20*time.Second))
	}
	if tx.Terminal() {
		t.Fatal("pending is not terminal")
	}
	tx.Status = StatusCommitted
	if !tx.Terminal() {
		t.Fatal("committed is terminal")
	}
}

func TestDecomposeByGroup(t *testing.T) {
	tx := sample()
	// Ops 0,2 at site A (group 1); ops 1,3 at site B (group 2).
	subs := tx.Decompose([]int{0, 1, 0, 1}, 4, new(Decomposition))
	if len(subs) != 2 {
		t.Fatalf("subtasks = %d, want 2", len(subs))
	}
	total := 0
	var length time.Duration
	for _, s := range subs {
		total += len(s.Ops)
		length += s.Length
		if want := []Op{tx.Ops[s.Index], tx.Ops[s.Index+2]}; !reflect.DeepEqual(s.Ops, want) {
			t.Fatalf("group %d runs %v, want %v", s.Index, s.Ops, want)
		}
	}
	if total != 4 {
		t.Fatalf("ops across subtasks = %d", total)
	}
	if length != tx.Length {
		t.Fatalf("lengths sum to %v, want %v", length, tx.Length)
	}
}

func TestDecomposeSingleGroupNil(t *testing.T) {
	tx := sample()
	if subs := tx.Decompose([]int{0, 0, 0, 0}, 4, new(Decomposition)); subs != nil {
		t.Fatal("single group should not decompose")
	}
}

func TestDecomposeRespectsFlag(t *testing.T) {
	tx := sample()
	tx.Decomposable = false
	if subs := tx.Decompose([]int{0, 1, 2, 3}, 4, new(Decomposition)); subs != nil {
		t.Fatal("non-decomposable transaction decomposed")
	}
}

func TestDecomposeMaxParts(t *testing.T) {
	tx := sample()
	subs := tx.Decompose([]int{0, 1, 2, 3}, 2, new(Decomposition)) // 4 groups, cap 2
	if len(subs) != 2 {
		t.Fatalf("subtasks = %d, want 2 after merging", len(subs))
	}
	// The groups past the cap join the first, last group first.
	if want := []Op{tx.Ops[0], tx.Ops[3], tx.Ops[2]}; !reflect.DeepEqual(subs[0].Ops, want) {
		t.Fatalf("merged group runs %v, want %v", subs[0].Ops, want)
	}
	total := 0
	for _, s := range subs {
		total += len(s.Ops)
	}
	if total != 4 {
		t.Fatalf("ops lost in merge: %d", total)
	}
}

func newTestGen(update float64) *Generator {
	stream := rng.NewStream(1)
	access := rng.NewLocalizedRW(stream.Derive(9), rng.LocalizedRWConfig{
		DBSize: 10000, ClientIndex: 0, NumClients: 10,
		RegionSize: 1000, LocalFraction: 0.75, ZipfTheta: 0.9,
	})
	return NewGenerator(stream, 1, WorkloadConfig{
		MeanInterArrival:     10 * time.Second,
		MeanLength:           10 * time.Second,
		MeanSlack:            20 * time.Second,
		MeanObjects:          10,
		UpdateFraction:       update,
		DecomposableFraction: 0.1,
		Access:               access,
	}, new(Maker))
}

func TestGeneratorArrivalsIncrease(t *testing.T) {
	g := newTestGen(0.05)
	last := time.Duration(-1)
	for i := 0; i < 100; i++ {
		at := g.NextArrival()
		if at < last {
			t.Fatalf("arrival went backwards: %v < %v", at, last)
		}
		tx := g.Next()
		if tx.Arrival != at {
			t.Fatalf("arrival mismatch: %v vs %v", tx.Arrival, at)
		}
		last = at
	}
}

func TestGeneratorShape(t *testing.T) {
	g := newTestGen(0.05)
	var nOps, nWrites, nDecomp int
	var sumLen, sumSlack, prev, sumIat time.Duration
	const n = 3000
	for i := 0; i < n; i++ {
		tx := g.Next()
		if len(tx.Ops) < 1 {
			t.Fatal("transaction with no ops")
		}
		if tx.Deadline <= tx.Arrival {
			t.Fatal("deadline before arrival")
		}
		if tx.ID == 0 {
			t.Fatal("id not assigned")
		}
		nOps += len(tx.Ops)
		for _, op := range tx.Ops {
			if op.Write {
				nWrites++
			}
		}
		if tx.Decomposable {
			nDecomp++
		}
		sumLen += tx.Length
		sumSlack += tx.Deadline - tx.Arrival
		sumIat += tx.Arrival - prev
		prev = tx.Arrival
	}
	if mean := float64(nOps) / n; mean < 9 || mean > 11 {
		t.Fatalf("mean ops = %v, want ~10", mean)
	}
	if frac := float64(nWrites) / float64(nOps); frac < 0.035 || frac > 0.065 {
		t.Fatalf("write fraction = %v, want ~0.05", frac)
	}
	if frac := float64(nDecomp) / n; frac < 0.06 || frac > 0.14 {
		t.Fatalf("decomposable fraction = %v, want ~0.1", frac)
	}
	if mean := sumLen / n; mean < 9*time.Second || mean > 11*time.Second {
		t.Fatalf("mean length = %v, want ~10s", mean)
	}
	if mean := sumSlack / n; mean < 19*time.Second || mean > 23*time.Second {
		t.Fatalf("mean slack = %v, want ~20s", mean)
	}
	if mean := sumIat / n; mean < 9*time.Second || mean > 11*time.Second {
		t.Fatalf("mean inter-arrival = %v, want ~10s", mean)
	}
}

func TestGeneratorDistinctOps(t *testing.T) {
	g := newTestGen(0.2)
	for i := 0; i < 200; i++ {
		tx := g.Next()
		seen := map[lockmgr.ObjectID]bool{}
		for _, op := range tx.Ops {
			if seen[op.Obj] {
				t.Fatalf("duplicate object %d in transaction", op.Obj)
			}
			seen[op.Obj] = true
		}
	}
}

func TestIndependentDeadlinePolicy(t *testing.T) {
	stream := rng.NewStream(2)
	access := rng.NewUniform(stream.Derive(9), 1000)
	g := NewGenerator(stream, 1, WorkloadConfig{
		MeanInterArrival:     10 * time.Second,
		MeanLength:           10 * time.Second,
		MeanSlack:            20 * time.Second,
		MeanObjects:          5,
		IndependentDeadlines: true,
		Access:               access,
	}, new(Maker))
	// Under the independent policy some transactions must draw
	// deadlines shorter than their own length (impossible under the
	// default policy).
	impossible := 0
	for i := 0; i < 500; i++ {
		tx := g.Next()
		if tx.Deadline-tx.Arrival < tx.Length {
			impossible++
		}
	}
	if impossible == 0 {
		t.Fatal("independent deadlines never fell below the length")
	}
}
