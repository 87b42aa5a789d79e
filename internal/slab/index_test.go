package slab

import (
	"slices"
	"testing"
)

// keyed is a record an Index holds in the tests: its key is its field.
type keyed struct{ k uint64 }

func (r *keyed) Key() uint64 { return r.k }

// slotKeys returns x's slots as keys, -1 for an empty one.
func slotKeys(x *Index[*keyed]) []int {
	if x.t == nil {
		return nil
	}
	out := make([]int, len(x.t.slots))
	for i, p := range x.t.slots {
		out[i] = -1
		if p != nil {
			out[i] = int(p.k)
		}
	}
	return out
}

// TestIndexWrappedCluster pins the two layouts a delete must get right,
// in the four-slot table a new index starts with, where keys 3 and 8
// both hash to slot 3 and keys 0 and 2 to slot 0. Key 8 wraps to slot 0;
// a walk that deletes key 3 shifts 8 back into slot 3, and must visit it
// there once — not again, as a walk starting at slot 0 would, having
// seen it first where it was. Deleting key 0 from the cluster 0, 2 at
// slots 0, 1 shifts 2 back to its home.
func TestIndexWrappedCluster(t *testing.T) {
	var s IndexSlab[*keyed]
	var x Index[*keyed]
	x.Put(&s, &keyed{3})
	x.Put(&s, &keyed{8})
	if got := slotKeys(&x); !slices.Equal(got, []int{8, -1, -1, 3}) {
		t.Fatalf("slots %v, want key 8 wrapped to slot 0 behind key 3", got)
	}
	var seen []uint64
	x.Each(func(r *keyed) {
		seen = append(seen, r.k)
		if r.k == 3 {
			x.Delete(&s, 3)
		}
	})
	if !slices.Equal(seen, []uint64{3, 8}) {
		t.Errorf("walk deleting key 3 visited %v, want [3 8]", seen)
	}
	if got := slotKeys(&x); !slices.Equal(got, []int{-1, -1, -1, 8}) {
		t.Errorf("slots %v after the delete, want key 8 shifted back to slot 3", got)
	}

	var y Index[*keyed]
	y.Put(&s, &keyed{0})
	y.Put(&s, &keyed{2})
	y.Delete(&s, 0)
	if got := slotKeys(&y); !slices.Equal(got, []int{2, -1, -1, -1}) {
		t.Errorf("slots %v after deleting key 0, want key 2 shifted back to slot 0", got)
	}
	if y.Get(2) == nil || y.Get(0) != nil {
		t.Error("key 2 lost or key 0 kept")
	}
}

// TestIndexStorageFromSlab: an index holds no storage until its first
// Put and gives it back when its last record leaves, and on a slab that
// another index warmed a fill-and-drain cycle allocates nothing — the
// growth from the first block included.
func TestIndexStorageFromSlab(t *testing.T) {
	var s IndexSlab[*keyed]
	recs := make([]keyed, 40)
	for i := range recs {
		recs[i].k = uint64(i * 7)
	}
	var x Index[*keyed]
	cycle := func() {
		for i := range recs {
			x.Put(&s, &recs[i])
		}
		for i := range recs {
			if x.Get(recs[i].k) != &recs[i] {
				panic("record lost")
			}
		}
		for i := range recs {
			x.Delete(&s, recs[i].k)
		}
		if x != (Index[*keyed]{}) {
			panic("a drained index kept its storage")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a put/delete cycle on a warmed slab allocates %v per run, want 0", n)
	}
}

// FuzzIndex drives an Index and a Go map with one byte-encoded operation
// stream and checks after every step that they hold the same records:
// every key's Get, and a walk that visits each record once. A byte's
// low six bits are a key (or a divisor); its top two choose Put (of a
// key not held), Delete, Get, and a walk that deletes every record
// whose key the divisor — the low bits plus one — divides.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0x03, 0x08, 0xc2})       // wrapped cluster; the walk deletes key 3
	f.Add([]byte{0x00, 0x02, 0x05, 0x40}) // cluster at slot 0 grown to eight slots; delete its head
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0xc0, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s IndexSlab[*keyed]
		var x Index[*keyed]
		ref := map[uint64]*keyed{}
		for step, b := range data {
			k := uint64(b & 0x3f)
			switch b >> 6 {
			case 0:
				if ref[k] == nil {
					r := &keyed{k}
					x.Put(&s, r)
					ref[k] = r
				}
			case 1:
				x.Delete(&s, k)
				delete(ref, k)
			case 2:
				if x.Get(k) != ref[k] {
					t.Fatalf("step %d: Get(%d) = %v, want %v", step, k, x.Get(k), ref[k])
				}
			case 3:
				visits := map[uint64]int{}
				x.Each(func(r *keyed) {
					visits[r.k]++
					if r.k%(k+1) == 0 {
						x.Delete(&s, r.k)
					}
				})
				if len(visits) != len(ref) {
					t.Fatalf("step %d: walk visited %d keys, reference holds %d", step, len(visits), len(ref))
				}
				for key := range ref {
					if visits[key] != 1 {
						t.Fatalf("step %d: walk visited key %d %d times, want once", step, key, visits[key])
					}
					if key%(k+1) == 0 {
						delete(ref, key)
					}
				}
			}
			n := 0
			x.Each(func(r *keyed) {
				n++
				if ref[r.k] != r {
					t.Fatalf("step %d: index holds key %d, reference does not", step, r.k)
				}
			})
			if n != len(ref) {
				t.Fatalf("step %d: index walks %d records, reference holds %d", step, n, len(ref))
			}
			for key := uint64(0); key < 64; key++ {
				if x.Get(key) != ref[key] {
					t.Fatalf("step %d: Get(%d) = %v, want %v", step, key, x.Get(key), ref[key])
				}
			}
			if (len(ref) == 0) != (x == Index[*keyed]{}) {
				t.Fatalf("step %d: %d records, storage held %v", step, len(ref), x != Index[*keyed]{})
			}
			if x.t != nil && 2*int(x.t.n) > len(x.t.slots) {
				t.Fatalf("step %d: %d records in %d slots", step, x.t.n, len(x.t.slots))
			}
		}
	})
}
