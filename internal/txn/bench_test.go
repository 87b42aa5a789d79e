package txn

import "testing"

// BenchmarkGeneratorNext times one transaction of a Table 1 client's
// stream (Localized-RW access, ten objects on average, 20 % updates):
// the draws, and carving the record and its access vector from the
// maker's slabs. A system retires its transactions and forgets them, so
// the maker hands out chunks, not records, and allocates a chunk every
// few hundred transactions.
func BenchmarkGeneratorNext(b *testing.B) {
	g := newTestGen(0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = g.Next()
	}
}

var sink *Transaction
