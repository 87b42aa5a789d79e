package sim

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzEventOrder drives the same random script against the Env and
// against refQueue, a slice kept sorted by (at, seq) with lazy cancel,
// and requires the same executed (at, seq, id) sequence and the same
// clock after every operation. The script posts at now and later,
// cancels live and stale timers, steps, and runs to an until behind and
// ahead of the clock; the handlers it posts cancel and post in turn.
// After every operation the Env's heap must also hold at most
// max(minEventPool, 2 × live) entries, and its dead count must match
// the canceled entries it holds.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 2, 1, 9, 3, 0, 3, 0, 4, 12})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > maxScript {
			script = script[:maxScript]
		}
		runEventOrder(t, script)
	})
}

// maxScript bounds a script's length; the reference queue's inserts are
// linear, and longer scripts find nothing shorter ones miss.
const maxScript = 256

// fired is one executed event: its time, sequence number and script id.
type fired struct {
	at  time.Duration
	seq int64
	id  int
}

// eventQueue is what a script drives. Ids count posts from 0.
type eventQueue interface {
	now() time.Duration
	posts() int
	post(at time.Duration, act byte)
	cancel(id int)
	step() bool
	run(until time.Duration)
	log() []fired
}

// react is what the handler of an event with action byte act does when
// it runs: nothing, cancel a timer (its own stale one, an earlier or a
// later one), post at now, or post a little later. Each level shifts act
// right, so chains of posts end.
func react(q eventQueue, id int, act byte) {
	switch act & 3 {
	case 1:
		q.cancel((id + 1 + int(act>>2)) % q.posts())
	case 2:
		q.post(q.now(), act>>2)
	case 3:
		q.post(q.now()+time.Duration(act>>2&3+1)*time.Millisecond, act>>4)
	}
}

// apply runs one two-byte script operation against q.
func apply(q eventQueue, op, arg byte) {
	ms := time.Millisecond
	switch op % 7 {
	case 0:
		q.post(q.now(), arg)
	case 1:
		q.post(q.now()+time.Duration(arg&7+1)*ms, arg>>3)
	case 2:
		if n := q.posts(); n > 0 {
			q.cancel(int(arg) % n)
		}
	case 3:
		q.step()
	case 4:
		q.run(q.now() + time.Duration(int(arg&15)-4)*ms)
	case 5: // a burst of later events
		for j := 0; j <= int(arg&63); j++ {
			q.post(q.now()+time.Duration(j%8+1)*ms, 0)
		}
	case 6: // cancel every id not divisible by m, fired or not
		m := int(arg&3) + 2
		for id := 0; id < q.posts(); id++ {
			if id%m != 0 {
				q.cancel(id)
			}
		}
	}
}

// eventOrderReach says which queue states a script reached in the Env:
// the largest heap a cancel compacted (0 if none), and whether a heap
// entry and a ready entry were ever due at the same instant.
type eventOrderReach struct {
	compacted int
	mixed     bool
}

func runEventOrder(t *testing.T, script []byte) eventOrderReach {
	t.Helper()
	q := &envQueue{env: NewEnv()}
	defer q.env.Close()
	ref := &refQueue{}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		apply(q, op, arg)
		apply(ref, op, arg)
		q.check(t)
		if got, want := q.log(), ref.log(); len(got) != len(want) {
			t.Fatalf("op %d (%d, %d): Env executed %d events, reference %d", i/2, op, arg, len(got), len(want))
		} else {
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("op %d (%d, %d): event %d is %+v, reference %+v", i/2, op, arg, k, got[k], want[k])
				}
			}
		}
		if q.now() != ref.now() {
			t.Fatalf("op %d (%d, %d): clock %v, reference %v", i/2, op, arg, q.now(), ref.now())
		}
	}
	return q.reach
}

// envQueue drives an Env.
type envQueue struct {
	env    *Env
	timers []Timer
	seqs   []int64
	out    []fired
	reach  eventOrderReach
}

func (q *envQueue) now() time.Duration { return q.env.Now() }
func (q *envQueue) posts() int         { return len(q.timers) }
func (q *envQueue) log() []fired       { return q.out }

func (q *envQueue) post(at time.Duration, act byte) {
	id := len(q.timers)
	q.timers = append(q.timers, q.env.At(at, func() {
		q.out = append(q.out, fired{q.env.now, q.seqs[id], id})
		react(q, id, act)
		q.observe()
	}))
	q.seqs = append(q.seqs, q.env.seq)
}

func (q *envQueue) cancel(id int) {
	n := len(q.env.events)
	q.timers[id].Cancel()
	if len(q.env.events) < n && n > q.reach.compacted {
		q.reach.compacted = n
	}
}

func (q *envQueue) step() bool              { return q.env.Step() }
func (q *envQueue) run(until time.Duration) { q.env.Run(until) }

// observe notes a heap entry and a ready entry due at the same instant.
func (q *envQueue) observe() {
	e := q.env
	if len(e.events) > 0 && e.events[0].at == e.now && e.readyHead < len(e.ready) {
		q.reach.mixed = true
	}
}

// check observes the queue and holds it to the compaction bound.
func (q *envQueue) check(t *testing.T) {
	t.Helper()
	q.observe()
	e := q.env
	dead := 0
	for _, ent := range e.events {
		if e.pool[ent.idx].canceled {
			dead++
		}
	}
	if dead != e.dead {
		t.Fatalf("heap holds %d canceled entries, dead count says %d", dead, e.dead)
	}
	if live := len(e.events) - dead; len(e.events) > max(minEventPool, 2*live) {
		t.Fatalf("heap holds %d entries for %d live ones", len(e.events), live)
	}
}

// refQueue is the reference: pending events in a slice sorted by
// (at, seq), canceled by a flag and skipped when they come up.
type refQueue struct {
	clock    time.Duration
	seq      int64
	pending  []refEvent
	canceled []bool
	out      []fired
}

type refEvent struct {
	at  time.Duration
	seq int64
	id  int
	act byte
}

func (q *refQueue) now() time.Duration { return q.clock }
func (q *refQueue) posts() int         { return len(q.canceled) }
func (q *refQueue) log() []fired       { return q.out }

func (q *refQueue) post(at time.Duration, act byte) {
	q.seq++
	ev := refEvent{at: at, seq: q.seq, id: len(q.canceled), act: act}
	q.canceled = append(q.canceled, false)
	i := sort.Search(len(q.pending), func(i int) bool { return q.pending[i].at > at })
	q.pending = append(q.pending, refEvent{})
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = ev
}

func (q *refQueue) cancel(id int) { q.canceled[id] = true }

// dropCanceled discards canceled events at the head of the queue.
func (q *refQueue) dropCanceled() {
	for len(q.pending) > 0 && q.canceled[q.pending[0].id] {
		q.pending = q.pending[1:]
	}
}

func (q *refQueue) step() bool {
	q.dropCanceled()
	if len(q.pending) == 0 {
		return false
	}
	ev := q.pending[0]
	q.pending = q.pending[1:]
	q.clock = ev.at
	q.out = append(q.out, fired{ev.at, ev.seq, ev.id})
	react(q, ev.id, ev.act)
	return true
}

func (q *refQueue) run(until time.Duration) {
	for {
		q.dropCanceled()
		if len(q.pending) == 0 || q.pending[0].at > until {
			break
		}
		q.step()
	}
	if q.clock < until {
		q.clock = until
	}
}

// The committed seed corpus reaches both states the two-queue design
// adds: a compaction of a heap of at least minEventPool entries, and a
// heap entry due at the instant ready entries were posted for.
func TestEventOrderCorpusReaches(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEventOrder", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus for FuzzEventOrder: %v", err)
	}
	var reach eventOrderReach
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value fuzz corpus file", name)
		}
		lit, ok := strings.CutPrefix(lines[1], "[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		script, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: cannot read %q", name, lines[1])
		}
		r := runEventOrder(t, []byte(script))
		reach.compacted = max(reach.compacted, r.compacted)
		reach.mixed = reach.mixed || r.mixed
	}
	if reach.compacted < minEventPool {
		t.Errorf("no seed compacts a heap of at least %d entries (largest: %d)", minEventPool, reach.compacted)
	}
	if !reach.mixed {
		t.Error("no seed puts heap and ready entries at the same instant")
	}
}
