package kmer

import (
	"math/rand"
	"strings"
	"testing"
)

// TestFlatSetDifferential pins the open-addressing set against a Go
// map on a randomized insert/lookup mix: dense ids must come out in
// first-seen order, duplicates must return their original id, and
// lookups must agree on both hits and misses.
func TestFlatSetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(MaxK)
		n := rng.Intn(2000)
		hint := 0
		if trial%2 == 0 {
			hint = n // alternate between pre-sized and grow-from-minimum
		}
		s := NewFlatSet(hint)
		ref := map[Kmer]int32{}
		for i := 0; i < n; i++ {
			// Small value range forces duplicates.
			m := Kmer(rng.Uint64() % (1 << uint(2*min(k, 8)))) // keep within mask
			wantID, seen := ref[m]
			if !seen {
				wantID = int32(len(ref))
				ref[m] = wantID
			}
			if got := s.Add(m); got != wantID {
				t.Fatalf("trial %d: Add(%v) id = %d, want %d", trial, m, got, wantID)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, s.Len(), len(ref))
		}
		for m, wantID := range ref {
			id, ok := s.Lookup(m)
			if !ok || id != wantID {
				t.Fatalf("trial %d: Lookup(%v) = (%d,%v), want (%d,true)", trial, m, id, ok, wantID)
			}
		}
		for i := 0; i < 200; i++ {
			m := Kmer(rng.Uint64() & mask(k))
			_, wantOK := ref[m]
			if _, ok := s.Lookup(m); ok != wantOK {
				t.Fatalf("trial %d: Lookup(%v) ok = %v, want %v", trial, m, ok, wantOK)
			}
		}
		got := map[Kmer]int32{}
		s.ForEach(func(m Kmer, id int32) { got[m] = id })
		if len(got) != len(ref) {
			t.Fatalf("trial %d: ForEach visited %d keys, want %d", trial, len(got), len(ref))
		}
		for m, id := range got {
			if ref[m] != id {
				t.Fatalf("trial %d: ForEach(%v) id = %d, want %d", trial, m, id, ref[m])
			}
		}
	}
}

// The all-A k-mer packs to the zero word — exactly the value an
// occupancy scheme without key tagging would lose.
func TestFlatSetZeroKmer(t *testing.T) {
	s := NewFlatSet(0)
	if _, ok := s.Lookup(0); ok {
		t.Fatal("empty set claims to contain the zero k-mer")
	}
	if id := s.Add(0); id != 0 {
		t.Fatalf("Add(0) id = %d", id)
	}
	if id, ok := s.Lookup(0); !ok || id != 0 {
		t.Fatalf("Lookup(0) = (%d,%v)", id, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestFlatSetGrowthPreservesIds floods a minimum-size table far past
// its initial capacity: ids must stay stable across every rehash.
func TestFlatSetGrowthPreservesIds(t *testing.T) {
	s := NewFlatSet(0)
	const n = 10000
	for i := 0; i < n; i++ {
		if id := s.Add(Kmer(i)); id != int32(i) {
			t.Fatalf("Add(%d) id = %d", i, id)
		}
	}
	for i := 0; i < n; i++ {
		if id, ok := s.Lookup(Kmer(i)); !ok || id != int32(i) {
			t.Fatalf("after growth: Lookup(%d) = (%d,%v)", i, id, ok)
		}
	}
}

// FuzzFlatSet drives the probe/freeze path with arbitrary operation
// streams: every byte pair becomes an (op, key) step checked against a
// map reference.
func FuzzFlatSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1})
	f.Add([]byte{255, 254, 0, 0, 0, 7, 7, 7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewFlatSet(0)
		ref := map[Kmer]int32{}
		for i := 0; i+1 < len(data); i += 2 {
			m := Kmer(uint64(data[i+1]) | uint64(data[i]&0x3f)<<8)
			if data[i]&0x40 == 0 {
				wantID, seen := ref[m]
				if !seen {
					wantID = int32(len(ref))
					ref[m] = wantID
				}
				if got := s.Add(m); got != wantID {
					t.Fatalf("Add(%v) = %d, want %d", m, got, wantID)
				}
			} else {
				wantID, wantOK := ref[m]
				id, ok := s.Lookup(m)
				if ok != wantOK || (ok && id != wantID) {
					t.Fatalf("Lookup(%v) = (%d,%v), want (%d,%v)", m, id, ok, wantID, wantOK)
				}
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
		}
	})
}

// TestFlatSetSaturationPanics pins the dense-id capacity edge: the
// last representable id must still insert, a duplicate of it must
// still resolve, and the first insertion past maxFlatLen must panic
// with a diagnostic instead of wrapping ids negative. The counter is
// forced to the edge directly — actually inserting 2^31 keys is not a
// unit test.
func TestFlatSetSaturationPanics(t *testing.T) {
	s := NewFlatSet(0)
	s.n = maxFlatLen - 1
	if id := s.Add(Kmer(1)); id != maxFlatLen-1 {
		t.Fatalf("Add at capacity edge: id = %d, want %d", id, int32(maxFlatLen-1))
	}
	if s.n != maxFlatLen {
		t.Fatalf("n = %d, want %d", s.n, int32(maxFlatLen))
	}
	if id := s.Add(Kmer(1)); id != maxFlatLen-1 {
		t.Fatalf("duplicate Add on saturated table: id = %d, want %d", id, int32(maxFlatLen-1))
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Add past saturation did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "saturated") {
			t.Fatalf("panic = %v, want saturation diagnostic", r)
		}
	}()
	s.Add(Kmer(2))
}

// TestFlatSetLoadCheckNoOverflow pins the grow trigger's arithmetic:
// near the id ceiling the old int32 form (3*(n+1)) wrapped negative
// and stopped growing the table. With the counter forced high, an
// insert must still leave the table below full occupancy.
func TestFlatSetLoadCheckNoOverflow(t *testing.T) {
	s := NewFlatSet(0)
	s.n = maxFlatLen - 2
	slotsBefore := len(s.slots)
	s.Add(Kmer(3))
	if len(s.slots) <= slotsBefore {
		t.Fatalf("grow did not trigger at n=%d: slots %d -> %d", maxFlatLen-2, slotsBefore, len(s.slots))
	}
}

// TestOwnerRank pins the partitioner: deterministic, in range, total
// (every k-mer owned), and reasonably balanced across ranks.
func TestOwnerRank(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, ranks := range []int{1, 2, 3, 4, 7, 16} {
		counts := make([]int, ranks)
		const n = 20000
		for i := 0; i < n; i++ {
			m := Kmer(rng.Uint64() & mask(25))
			o := OwnerRank(m, ranks)
			if o < 0 || o >= ranks {
				t.Fatalf("OwnerRank(%v, %d) = %d out of range", m, ranks, o)
			}
			if o2 := OwnerRank(m, ranks); o2 != o {
				t.Fatalf("OwnerRank not deterministic: %d vs %d", o, o2)
			}
			counts[o]++
		}
		if ranks == 1 {
			continue
		}
		want := n / ranks
		for r, got := range counts {
			if got < want/2 || got > want*2 {
				t.Fatalf("ranks=%d: shard %d holds %d of %d k-mers (expected ~%d)", ranks, r, got, n, want)
			}
		}
	}
}

func TestAppendDecode(t *testing.T) {
	m, _ := Encode([]byte("GATTACA"), 7)
	if got := string(m.AppendDecode([]byte("x:"), 7)); got != "x:GATTACA" {
		t.Errorf("AppendDecode = %q", got)
	}
	if got := Kmer(0).Decode(5); got != "AAAAA" {
		t.Errorf("Decode(all-A) = %q", got)
	}
}

// meanProbes is the mean number of slots a successful Lookup reads over
// the keys of s: one plus each key's displacement from its home slot.
func meanProbes(s *FlatSet) float64 {
	total := 0
	s.ForEach(func(m Kmer, _ int32) {
		home := m.Hash() & s.mask
		i := home
		for s.slots[i] != uint64(m)<<1|1 {
			i = (i + 1) & s.mask
		}
		total += 1 + int((i-home)&s.mask)
	})
	return float64(total) / float64(s.Len())
}

// TestOwnerShardProbes pins the owner map's independence from FlatSet's
// home slots: a set holding only one owner's keys must probe like a set
// of unfiltered keys at the same load. An owner taken from the same
// bits the set probes from crowds every shard's home slots.
func TestOwnerShardProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40000
	fill := func(keep func(Kmer) bool) *FlatSet {
		s := NewFlatSet(n)
		for s.Len() < n {
			if m := Kmer(rng.Uint64() & mask(25)); keep(m) {
				s.Add(m)
			}
		}
		return s
	}
	base := meanProbes(fill(func(Kmer) bool { return true }))
	for _, ranks := range []int{2, 4, 8} {
		for _, owner := range []int{0, ranks - 1} {
			got := meanProbes(fill(func(m Kmer) bool { return OwnerRank(m, ranks) == owner }))
			if got > 1.1*base {
				t.Errorf("ranks=%d owner=%d: shard set probes %.3f per lookup, unfiltered %.3f", ranks, owner, got, base)
			}
		}
	}
}

// TestFlatSetFitKeepsIds fills sets hinted far above and below what
// they end up holding: Fit must leave each at the slots NewFlatSet
// gives its final count, with every id where it was and Add still
// growing it from there.
func TestFlatSetFitKeepsIds(t *testing.T) {
	for _, tc := range []struct{ hint, n int }{{10000, 100}, {0, 5000}, {3000, 1000}, {64, 0}} {
		s := NewFlatSet(tc.hint)
		for i := 0; i < tc.n; i++ {
			s.Add(Kmer(i * 7))
		}
		s.Fit()
		if want := NewFlatSet(tc.n).MemBytes(); s.MemBytes() != want {
			t.Errorf("hint %d, %d k-mers: fit set holds %d bytes, want %d", tc.hint, tc.n, s.MemBytes(), want)
		}
		for i := 0; i < tc.n; i++ {
			if id, ok := s.Lookup(Kmer(i * 7)); !ok || id != int32(i) {
				t.Fatalf("hint %d: after Fit, Lookup(%d) = (%d,%v)", tc.hint, i*7, id, ok)
			}
		}
		for i := tc.n; i < 2*tc.n+20; i++ {
			if id := s.Add(Kmer(i * 7)); id != int32(i) {
				t.Fatalf("hint %d: Add after Fit gave id %d, want %d", tc.hint, id, i)
			}
		}
	}
}
