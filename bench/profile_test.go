package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pb is a minimal protobuf writer for building a canned profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	p.WriteByte(byte(x))
}

func (p *pb) uint(field int, x uint64) { p.varint(uint64(field)<<3 | 0); p.varint(x) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

func (p *pb) packed(field int, xs ...uint64) {
	var body pb
	for _, x := range xs {
		body.varint(x)
	}
	p.bytes(field, body.Bytes())
}

// cannedProfile encodes three samples over four functions the way
// runtime/pprof does: packed location ids and values, one location
// carrying an inlined pair.
func cannedProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "siteselect/internal/sim.(*Env).Step", "runtime.memmove",
		"runtime.mallocgc", "siteselect/internal/client.(*Client).handle", "samples", "count"}
	var prof pb
	var st pb
	st.uint(1, 5)
	st.uint(2, 6)
	prof.bytes(1, st.Bytes()) // sample_type, skipped by the decoder
	sample := func(count uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, count, count*10_000_000)
		prof.bytes(2, s.Bytes())
	}
	sample(5, 1)    // sim.Step
	sample(3, 2, 1) // memmove <- sim.Step
	sample(2, 3)    // mallocgc inlined into client.handle
	location := func(id uint64, fns ...uint64) {
		var l pb
		l.uint(1, id)
		l.uint(3, 0x1000+id)
		for _, fn := range fns {
			var line pb
			line.uint(1, fn)
			line.uint(2, 42)
			l.bytes(4, line.Bytes())
		}
		prof.bytes(4, l.Bytes())
	}
	location(1, 1)
	location(2, 2)
	location(3, 3, 4)
	for id := uint64(1); id <= 4; id++ {
		var f pb
		f.uint(1, id)
		f.uint(2, id) // name: string index == id
		prof.bytes(5, f.Bytes())
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestDecodeProfile(t *testing.T) {
	stacks, err := decodeProfile(cannedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 3 {
		t.Fatalf("decoded %d stacks, want 3", len(stacks))
	}
	want := [][]string{
		{"siteselect/internal/sim.(*Env).Step"},
		{"runtime.memmove", "siteselect/internal/sim.(*Env).Step"},
		{"runtime.mallocgc", "siteselect/internal/client.(*Client).handle"},
	}
	for i, st := range stacks {
		if len(st.funcs) != len(want[i]) {
			t.Fatalf("stack %d = %v, want %v", i, st.funcs, want[i])
		}
		for j := range st.funcs {
			if st.funcs[j] != want[i][j] {
				t.Fatalf("stack %d = %v, want %v", i, st.funcs, want[i])
			}
		}
	}
	shares, total := cpuShares(stacks)
	if total != 10 {
		t.Fatalf("total samples %d, want 10", total)
	}
	if shares["sim"] != 0.8 || shares["rt.alloc"] != 0.2 {
		t.Fatalf("shares = %v, want sim 0.8 and rt.alloc 0.2", shares)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Fatal("decoded garbage")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // a sample claiming 127 bytes, holding 1
	zw.Close()
	if _, err := decodeProfile(gz.Bytes()); err == nil {
		t.Fatal("decoded a truncated message")
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		want  string
		stack []string
	}{
		{"sim", []string{"siteselect/internal/sim.(*Env).Step", "siteselect/internal/rtdbs.(*Cluster).Run"}},
		{"lockmgr", []string{"siteselect/internal/lockmgr.(*Table).Lock"}},
		// internal/sched is the EDF queue, not the Go scheduler.
		{"other", []string{"siteselect/internal/sched.(*EDFQueue).Push"}},
		{"other", []string{"siteselect/internal/txn.(*Generator).Next"}},
		{"rng", []string{"math/rand.seedrand", "math/rand.(*rngSource).Seed", "siteselect/internal/rng.NewStream"}},
		{"rng", []string{"siteselect/internal/rng.(*Zipf).Rank"}},
		{"rt.alloc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "siteselect/internal/client.New"}},
		{"rt.gc", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "siteselect/internal/sim.(*Env).post"}},
		{"rt.gc", []string{"runtime.findObject", "runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"rt.maps", []string{"runtime.mapaccess1_fast64", "siteselect/internal/lockmgr.(*Table).Lock"}},
		{"rt.maps", []string{"internal/runtime/maps.(*Map).getWithKey", "runtime.mapaccess2", "siteselect/internal/cache.(*Cache).Lookup"}},
		{"rt.alloc", []string{"runtime.mallocgc", "runtime.mapassign", "siteselect/internal/cache.(*Cache).Insert"}},
		{"rt.sched", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}},
		{"rt.sched", []string{"runtime.chanrecv", "siteselect/internal/sim.(*Proc).block"}},
		// Helpers that name no activity are charged to their caller.
		{"sim", []string{"runtime.memmove", "siteselect/internal/sim.(*eventHeap).push"}},
		{"server", []string{"sort.insertionSort", "sort.Slice", "siteselect/internal/server.(*Server).flush"}},
		{"other", []string{"runtime.memmove", "main.runPass"}},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	stacks := []stack{
		{[]string{"siteselect/internal/sim.(*Env).Step"}, 7},
		{[]string{"runtime.mallocgc"}, 2},
		{[]string{"main.main"}, 1},
		{[]string{"math/rand.seedrand"}, 3},
	}
	shares, _ := cpuShares(stacks)
	sum := 0.0
	for bucket := range cpuBuckets {
		sum += shares[bucket]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %g, want 1", sum)
	}
}
