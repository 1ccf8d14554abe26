package jellyfish

import (
	"math/rand"
	"slices"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// TestFreezeDifferential pins the table's read handle against the
// locked table it reads: every counted k-mer and a spray of absent ones
// must Get identical counts, stranded and canonical, on randomized
// reads that include ambiguous bases and empty sequences, and the
// handle must charge exactly the table.
func TestFreezeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		k := 3 + rng.Intn(12)
		var reads []seq.Record
		for r := 0; r < 30; r++ {
			n := rng.Intn(120) // includes empty and shorter-than-k reads
			s := make([]byte, n)
			for i := range s {
				s[i] = "ACGTN"[rng.Intn(5)] // ~20% ambiguous bases
			}
			reads = append(reads, seq.Record{ID: "r", Seq: s})
		}
		table, err := Count(reads, Options{K: k, Canonical: trial%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		f := table.Freeze()
		if f.MemBytes() != table.MemBytes() {
			t.Fatalf("trial %d: frozen MemBytes %d, want the table's %d", trial, f.MemBytes(), table.MemBytes())
		}
		for _, e := range table.Entries(1) {
			if got := f.Get(e.Kmer); got != e.Count {
				t.Fatalf("trial %d: Get(%v) = %d, want %d", trial, e.Kmer, got, e.Count)
			}
		}
		for i := 0; i < 500; i++ {
			m := kmer.Kmer(rng.Uint64() & ((1 << uint(2*k)) - 1))
			if got, want := f.Get(m), table.Get(m); got != want {
				t.Fatalf("trial %d: Get(%v) = %d, want %d", trial, m, got, want)
			}
		}
	}
}

func TestFreezeEmptyTable(t *testing.T) {
	table := NewCountTable(21, 4)
	f := table.Freeze()
	if got := f.Get(12345); got != 0 || f.Get(0) != 0 {
		t.Fatalf("empty freeze Get = %d", got)
	}
	if f.MemBytes() != table.MemBytes() {
		t.Fatalf("empty freeze charged %d, table holds %d", f.MemBytes(), table.MemBytes())
	}
}

// TestFreezeCopiesNothing: Freeze is a handle over the table, so its
// allocation does not grow with the table.
func TestFreezeCopiesNothing(t *testing.T) {
	table, err := CountPacked(seq.PackRecords(deepShaped()[:2000]), Options{K: 25})
	if err != nil {
		t.Fatal(err)
	}
	var sink *Frozen
	allocs := testing.AllocsPerRun(20, func() { sink = table.Freeze() })
	bytes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = table.Freeze()
		}
	}).AllocedBytesPerOp()
	if allocs > 1 || bytes > 64 {
		t.Errorf("Freeze of a %d-k-mer table: %v allocations, %d bytes", table.Distinct(), allocs, bytes)
	}
	_ = sink
}

// BenchmarkCountTableGet times the count probe twice over.
//
// The sharded and frozen rows compare the locked table against the
// lock-free read handle (Freeze) with all cores probing at once — the
// access pattern of weldSupport under the hybrid rank goroutines — on
// a cache-resident table, so they isolate per-probe structural cost
// (lock plus probe against one hash and one slot load) rather than
// DRAM latency.
//
// The wide rows time weld support's probe — each k-mer of a sequence
// and its reverse complement, in sequence order — on one core against
// a wide-sized table (~470 k distinct 25-mers) whose working set is
// not cache-resident: the table read in place (Freeze, what
// GraphFromFasta probes), the flat copy Freeze used to make (kept as
// the oracle frozenCopy), and the locked table. The sequences are the
// isoforms the reads were drawn from, standing in for the contigs that
// assemble them.
//
// `make bench-kernels` snapshots both into BENCH_kernels.json.
func BenchmarkCountTableGet(b *testing.B) {
	const smallK = 21
	rng := rand.New(rand.NewSource(3))
	small := NewCountTable(smallK, 64)
	probes := make([]kmer.Kmer, 1<<12)
	for i := range probes {
		m := kmer.Kmer(rng.Uint64() & ((1 << (2 * smallK)) - 1))
		probes[i] = m
		if i%2 == 0 { // half the probes hit, half miss
			small.Add(m, uint32(1+rng.Intn(100)))
		}
	}
	parallel := func(get func(kmer.Kmer) uint32) func(b *testing.B) {
		return func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				var sink uint32
				i := 0
				for pb.Next() {
					sink += get(probes[i&(len(probes)-1)])
					i++
				}
				_ = sink
			})
		}
	}
	b.Run("sharded", parallel(small.Get))
	b.Run("frozen", parallel(small.Freeze().Get))

	const k = 25
	d := wideShaped()
	table, err := CountPacked(seq.PackRecords(d.Reads), Options{K: k})
	if err != nil {
		b.Fatal(err)
	}
	var wide []kmer.Kmer
	for _, tx := range d.Reference {
		it := kmer.NewIterator(tx.Seq, k)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			wide = append(wide, m, m.ReverseComplement(k))
		}
	}
	b.Logf("wide: %d distinct k-mers, %d probes", table.Distinct(), len(wide))
	inOrder := func(get func(kmer.Kmer) uint32) func(b *testing.B) {
		return func(b *testing.B) {
			var sink uint32
			for i := 0; i < b.N; i++ {
				for _, m := range wide {
					sink += get(m)
				}
			}
			benchSink += int(sink)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(wide)), "ns/probe")
		}
	}
	b.Run("wide/in-place", inOrder(table.Freeze().Get))
	b.Run("wide/frozen-copy", inOrder(newFrozenCopy(table).get))
	b.Run("wide/locked", inOrder(table.Get))
}

// TestViewShardsMatchGet pins the count shards the sharded Chrysalis
// serves in place: for tables counted into several partitions and for
// FromEntries' single partition, every k-mer's count read through its
// owner's View equals Get at every rank count, aligned with the
// partitions or not, and the owners' metered bytes never add up to more
// than the table's own MemBytes — nor, with more than one owner, does
// any one owner's reach it.
func TestViewShardsMatchGet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k = 15
	var reads []seq.PackedRecord
	for r := 0; r < 200; r++ {
		s := make([]byte, 40+rng.Intn(80))
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		reads = append(reads, seq.PackedRecord{ID: "r", Seq: seq.Pack(s)})
	}
	counted, err := CountPacked(reads, Options{K: k, Threads: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	entries := counted.Entries(1)
	for _, tc := range []struct {
		name  string
		table *CountTable
	}{
		{"CountPacked", counted},
		{"FromEntries", FromEntries(k, entries)},
	} {
		frozen := tc.table.Freeze()
		if frozen.MemBytes() != tc.table.MemBytes() {
			t.Errorf("%s: Freeze charged %d, the table holds %d", tc.name, frozen.MemBytes(), tc.table.MemBytes())
		}
		for _, ranks := range []int{1, 2, 3, 4, 5, 8} {
			views := make([]View, ranks)
			var sum int64
			for r := range views {
				views[r] = tc.table.View(ranks, r)
				sum += views[r].MemBytes()
				if ranks > 1 && views[r].MemBytes() >= tc.table.MemBytes() {
					t.Errorf("%s ranks=%d: rank %d charged %d, the whole table's %d",
						tc.name, ranks, r, views[r].MemBytes(), tc.table.MemBytes())
				}
			}
			if sum > tc.table.MemBytes() || sum <= 0 {
				t.Errorf("%s ranks=%d: views charged %d in all, table holds %d", tc.name, ranks, sum, tc.table.MemBytes())
			}
			for _, e := range entries {
				if got := views[kmer.OwnerRank(e.Kmer, ranks)].Get(e.Kmer); got != tc.table.Get(e.Kmer) || got != e.Count || frozen.Get(e.Kmer) != got {
					t.Fatalf("%s ranks=%d: owner's view counts %v as %d, Get %d", tc.name, ranks, e.Kmer, got, tc.table.Get(e.Kmer))
				}
			}
			for i := 0; i < 200; i++ {
				m := kmer.Kmer(rng.Uint64() & (1<<(2*k) - 1))
				if got, want := views[kmer.OwnerRank(m, ranks)].Get(m), tc.table.Get(m); got != want || frozen.Get(m) != want {
					t.Fatalf("%s ranks=%d: owner's view counts %v as %d, Freeze %d, Get %d", tc.name, ranks, m, got, frozen.Get(m), want)
				}
			}
		}
	}
}

// TestEntriesAllocatesKept pins collect's sizing: Entries allocates the
// entries that pass minCount, not the whole table, and returns them in
// k-mer order whatever the filter drops.
func TestEntriesAllocatesKept(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var reads []seq.Record
	for r := 0; r < 300; r++ {
		s := make([]byte, 90)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		reads = append(reads, seq.Record{ID: "r", Seq: s}, seq.Record{ID: "dup", Seq: s[:50]})
	}
	table, err := Count(reads, Options{K: 13, Threads: 2, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	all := table.Entries(1)
	var want []Entry
	for _, e := range all {
		if e.Count >= 2 {
			want = append(want, e)
		}
	}
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("%d of %d entries pass: the filter went untested", len(want), len(all))
	}
	if got := table.Entries(2); !slices.Equal(got, want) {
		t.Fatalf("Entries(2) returned %d entries, want the %d of Entries(1) with count >= 2", len(got), len(want))
	}
	// The kept entries and the sort's buffer for them, plus at most a
	// 4-byte place per entry of the table; holding every entry (16
	// bytes each) would break it.
	bytes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			table.Entries(2)
		}
	}).AllocedBytesPerOp()
	if limit := int64(len(want))*32 + int64(len(all))*4; bytes > limit {
		t.Errorf("Entries(2) allocates %d bytes for %d kept of %d entries, limit %d", bytes, len(want), len(all), limit)
	}
}
