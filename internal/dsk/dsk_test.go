package dsk

import (
	"os"
	"reflect"
	"runtime"
	"testing"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

func TestCountMatchesJellyfish(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(5))
	const k = 21
	for _, canonical := range []bool{false, true} {
		jf, err := jellyfish.Count(d.Reads, jellyfish.Options{K: k, Canonical: canonical})
		if err != nil {
			t.Fatal(err)
		}
		want := jf.Entries(1)
		got, st, err := Count(d.Reads, Options{K: k, Partitions: 4, TmpDir: t.TempDir(), Canonical: canonical})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("canonical=%v: %d entries vs jellyfish %d", canonical, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("canonical=%v: entry %d differs: %v vs %v", canonical, i, got[i], want[i])
			}
		}
		if st.DistinctKmers != len(want) {
			t.Errorf("stats distinct = %d, want %d", st.DistinctKmers, len(want))
		}
	}
}

func TestPeakMemoryBelowTotal(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(6))
	_, st, err := Count(d.Reads, Options{K: 21, Partitions: 8, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctKmers == 0 {
		t.Fatal("nothing counted")
	}
	// The point of DSK: peak partition ≪ distinct total. With 8 even
	// partitions expect ~1/8; allow generous slack.
	if st.PeakPartition >= st.DistinctKmers/2 {
		t.Errorf("peak partition %d not below half of %d distinct", st.PeakPartition, st.DistinctKmers)
	}
	if st.PartitionBytes != 8*st.TotalKmers {
		t.Errorf("partition bytes %d != 8*%d", st.PartitionBytes, st.TotalKmers)
	}
}

func TestSinglePartitionEqualsInMemory(t *testing.T) {
	reads := []seq.Record{{Seq: []byte("ACGTACGTACGT")}}
	got, st, err := Count(reads, Options{K: 5, Partitions: 1, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakPartition != st.DistinctKmers {
		t.Errorf("single partition peak %d != distinct %d", st.PeakPartition, st.DistinctKmers)
	}
	if len(got) != st.DistinctKmers {
		t.Errorf("entries %d != distinct %d", len(got), st.DistinctKmers)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, _, err := Count(nil, Options{K: 0}); err == nil {
		t.Error("accepted k=0")
	}
	if _, _, err := Count(nil, Options{K: 32}); err == nil {
		t.Error("accepted k=32")
	}
}

func TestEmptyReads(t *testing.T) {
	got, st, err := Count(nil, Options{K: 5, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || st.TotalKmers != 0 {
		t.Errorf("empty input produced %d entries", len(got))
	}
}

func TestTempFilesCleanedUp(t *testing.T) {
	dir := t.TempDir()
	reads := []seq.Record{{Seq: []byte("ACGTACGTACGTACGTACGT")}}
	if _, _, err := Count(reads, Options{K: 7, Partitions: 3, TmpDir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := osReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("temp dir not cleaned: %v", entries)
	}
}

func osReadDir(dir string) ([]string, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Readdirnames(-1)
}

// TestCountSameForEveryWorkerCount pins both concurrent passes: the
// entries and Stats are those of one worker for every GOMAXPROCS,
// partition count and stranding, and match in-memory Jellyfish.
func TestCountSameForEveryWorkerCount(t *testing.T) {
	reads := seq.PackRecords(noisyReads(21, 400, 90))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, canonical := range []bool{false, true} {
		jf, err := jellyfish.CountPacked(reads, jellyfish.Options{K: 21, Canonical: canonical})
		if err != nil {
			t.Fatal(err)
		}
		want := jf.Entries(1)
		for _, parts := range []int{1, 3, 5, 8} {
			var ref Stats
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				got, st, err := CountPacked(reads, Options{K: 21, Partitions: parts, TmpDir: t.TempDir(), Canonical: canonical})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("canonical=%v partitions=%d GOMAXPROCS=%d: entries differ from jellyfish (%d vs %d)",
						canonical, parts, procs, len(got), len(want))
				}
				if procs == 1 {
					ref = st
				} else if st != ref {
					t.Fatalf("canonical=%v partitions=%d GOMAXPROCS=%d: stats %+v, one worker %+v",
						canonical, parts, procs, st, ref)
				}
			}
		}
	}
}

// TestTempDirRemovedOnWriteFailure makes every partition write fail:
// the count must report the error and leave no temp file behind.
func TestTempDirRemovedOnWriteFailure(t *testing.T) {
	defer func(create func(string) (*os.File, error)) { createPartition = create }(createPartition)
	createPartition = func(path string) (*os.File, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		f.Close()
		return os.Open(path) // read-only: every write fails
	}
	dir := t.TempDir()
	reads := noisyReads(22, 50, 80)
	if _, _, err := Count(reads, Options{K: 15, Partitions: 3, TmpDir: dir}); err == nil {
		t.Fatal("count succeeded with unwritable partitions")
	}
	entries, err := osReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("temp dir not cleaned after a write failure: %v", entries)
	}
}

// BenchmarkDSKCountPacked counts deep-shaped reads (the benchmark's
// deep workload at half its depth) at k=25 over 8 partitions, as
// external mode does.
func BenchmarkDSKCountPacked(b *testing.B) {
	p := rnaseq.Sugarbeet(1)
	p.Genes, p.LongGeneFrac, p.Reads = 75, 0, 40000
	reads := seq.PackRecords(rnaseq.Generate(p).Reads)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	var st Stats
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = CountPacked(reads, Options{K: 25, Partitions: 8, TmpDir: dir}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*st.TotalKmers), "ns/kmer")
}
