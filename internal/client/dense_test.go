package client

import (
	"testing"

	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/proto"
)

// storeCase runs the one script over a store of any instantiation: k
// are three distinct keys, v four distinct values.
func storeCase[K comparable, V comparable](t *testing.T, name string, k [3]K, v [4]V) {
	t.Run(name, func(t *testing.T) {
		var s store[K, V]
		var zero V
		if got, ok := s.take(k[0]); ok || got != zero {
			t.Fatalf("take from an empty store = %v, %v", got, ok)
		}
		for i := range k {
			s.put(k[i], v[i])
		}
		s.put(k[1], v[3]) // replaces: no second entry under k[1]
		if got, ok := s.find(k[1]); !ok || got != v[3] || len(s) != 3 {
			t.Fatalf("after put-replace: find = %v, %v with %d entries; want %v in 3", got, ok, len(s), v[3])
		}
		// Taking the first entry swaps the last one into its place; every
		// other key is still found, the taken one no longer.
		if got, ok := s.take(k[0]); !ok || got != v[0] || len(s) != 2 {
			t.Fatalf("take = %v, %v leaving %d entries; want %v leaving 2", got, ok, len(s), v[0])
		}
		if s[0].key != k[2] || s[:3][2] != (storeEntry[K, V]{}) {
			t.Fatalf("after swap-remove the store holds %v, vacated slot %v", s, s[:3][2])
		}
		if _, ok := s.find(k[0]); ok {
			t.Fatal("taken key still found")
		}
		if got, ok := s.take(k[0]); ok || got != zero {
			t.Fatalf("take of a missing key = %v, %v", got, ok)
		}
		for i, want := range map[int]V{1: v[3], 2: v[2]} {
			if got, ok := s.find(k[i]); !ok || got != want {
				t.Fatalf("find(k[%d]) = %v, %v; want %v", i, got, ok, want)
			}
		}
		s.take(k[1])
		s.take(k[2])
		if len(s) != 0 {
			t.Fatalf("%d entries left after taking every key", len(s))
		}
	})
}

// TestStore drives the three stores a Client keeps through put-replace,
// take-missing and swap-remove.
func TestStore(t *testing.T) {
	objs := [3]lockmgr.ObjectID{7, 8, 9}
	recall := func(n int) deferredRecall {
		return deferredRecall{r: proto.Recall{Obj: lockmgr.ObjectID(n)}, from: 0}
	}
	storeCase(t, "deferred", objs, [4]deferredRecall{recall(1), recall(2), recall(3), recall(4)})
	storeCase(t, "migrations", objs,
		[4]*forward.List{forward.NewList(7), forward.NewList(8), forward.NewList(9), forward.NewList(8)})
	storeCase(t, "shipWaits", [3]shipKey{{id: 1, sub: -1}, {id: 1, sub: 0}, {id: 2, sub: 0}},
		[4]*shipWait{{}, {}, {}, {}})
}
