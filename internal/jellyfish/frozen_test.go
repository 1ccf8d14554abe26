package jellyfish

import (
	"math/rand"
	"slices"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// TestFreezeDifferential pins the frozen flat table against the live
// sharded table it snapshots: every counted k-mer and a spray of
// absent ones must Get identical counts, stranded and canonical, on
// randomized reads that include ambiguous bases and empty sequences.
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
		if f.K != k {
			t.Fatalf("trial %d: frozen K = %d, want %d", trial, f.K, k)
		}
		if f.Distinct() != table.Distinct() {
			t.Fatalf("trial %d: Distinct %d vs %d", trial, f.Distinct(), table.Distinct())
		}
		if f.Total() != table.Total() {
			t.Fatalf("trial %d: Total %d vs %d", trial, f.Total(), table.Total())
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
	f := NewCountTable(21, 4).Freeze()
	if f.Distinct() != 0 || f.Total() != 0 {
		t.Fatalf("empty freeze: distinct=%d total=%d", f.Distinct(), f.Total())
	}
	if got := f.Get(12345); got != 0 {
		t.Fatalf("empty freeze Get = %d", got)
	}
}

// BenchmarkCountTableGet compares the loop-1 probe cost of the sharded
// mutex-guarded table against its frozen flat snapshot, with all cores
// probing concurrently — the access pattern of weldSupport under the
// hybrid rank goroutines. The working set is sized cache-resident so
// the benchmark isolates per-probe structural overhead (lock + map
// traversal vs one hash + one interleaved-slot load) rather than DRAM
// latency, mirroring weldSupport's hot-window locality: consecutive
// weld candidates re-probe overlapping window k-mers. This is the ≥5x
// acceptance benchmark of the zero-allocation kernel PR;
// `make bench-kernels` snapshots it into BENCH_kernels.json.
func BenchmarkCountTableGet(b *testing.B) {
	const k = 21
	rng := rand.New(rand.NewSource(3))
	table := NewCountTable(k, 64)
	probes := make([]kmer.Kmer, 1<<12)
	for i := range probes {
		m := kmer.Kmer(rng.Uint64() & ((1 << (2 * k)) - 1))
		probes[i] = m
		if i%2 == 0 { // half the probes hit, half miss
			table.Add(m, uint32(1+rng.Intn(100)))
		}
	}
	frozen := table.Freeze()
	b.Run("sharded", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var sink uint32
			i := 0
			for pb.Next() {
				sink += table.Get(probes[i&(len(probes)-1)])
				i++
			}
			_ = sink
		})
	})
	b.Run("frozen", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var sink uint32
			i := 0
			for pb.Next() {
				sink += frozen.Get(probes[i&(len(probes)-1)])
				i++
			}
			_ = sink
		})
	})
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
				if got := views[kmer.OwnerRank(e.Kmer, ranks)].Get(e.Kmer); got != tc.table.Get(e.Kmer) || got != e.Count {
					t.Fatalf("%s ranks=%d: owner's view counts %v as %d, Get %d", tc.name, ranks, e.Kmer, got, tc.table.Get(e.Kmer))
				}
			}
			for i := 0; i < 200; i++ {
				m := kmer.Kmer(rng.Uint64() & (1<<(2*k) - 1))
				if got, want := views[kmer.OwnerRank(m, ranks)].Get(m), tc.table.Get(m); got != want {
					t.Fatalf("%s ranks=%d: owner's view counts %v as %d, Get %d", tc.name, ranks, m, got, want)
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
