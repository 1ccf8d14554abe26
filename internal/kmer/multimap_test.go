package kmer

import (
	"math/rand"
	"reflect"
	"testing"
)

// multimapOracle is the map of slices Multimap replaces, plus the
// first-insertion order of its keys (the table's dense-id order).
type multimapOracle[V any] struct {
	rows  map[Kmer][]V
	order []Kmer
}

func (o *multimapOracle[V]) add(m Kmer, v V) {
	if o.rows == nil {
		o.rows = map[Kmer][]V{}
	}
	if _, seen := o.rows[m]; !seen {
		o.order = append(o.order, m)
	}
	o.rows[m] = append(o.rows[m], v)
}

// checkMultimap compares a frozen table with its oracle: Len, every row
// in input order, Values as the rows in first-insertion order, nil for
// absent keys (probe lists k-mers to try that may be absent) and
// MemBytes against the formula, with valBytes the size of one V.
func checkMultimap[V any](t *testing.T, tab *Multimap[V], ref *multimapOracle[V], probe []Kmer, valBytes int64) {
	t.Helper()
	if tab.Len() != len(ref.order) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref.order))
	}
	var all []V
	for _, m := range ref.order {
		want := ref.rows[m]
		if got := tab.Row(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("Row(%v) = %v, want %v", m, got, want)
		}
		all = append(all, want...)
	}
	if got := tab.Values(); len(got) != len(all) || (len(all) > 0 && !reflect.DeepEqual(got, all)) {
		t.Fatalf("Values = %v, want %v", got, all)
	}
	for _, m := range probe {
		if _, present := ref.rows[m]; !present && tab.Row(m) != nil {
			t.Fatalf("Row(%v) = %v for an absent key", m, tab.Row(m))
		}
	}
	want := tab.set.MemBytes() + 4*int64(len(ref.order)+1) + valBytes*int64(len(all))
	if got := tab.MemBytes(); got != want {
		t.Fatalf("MemBytes = %d, want %d", got, want)
	}
}

// TestMultimapMatchesMapOracle pins the table against a map of slices
// over random builds with forced repeats, the all-A k-mer among the
// keys, hints from zero (so the set grows and must keep its ids) to
// above the distinct count, and value types of 4 and 8 bytes.
func TestMultimapMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(600)
		keyRange := uint64(1 + rng.Intn(80))
		hint := []int{0, n / 8, n, 2 * n}[trial%4]
		occ := NewMultimap[[2]int32](hint, hint)
		small := NewMultimap[int32](hint, 0)
		var refOcc multimapOracle[[2]int32]
		var refSmall multimapOracle[int32]
		var probe []Kmer
		for i := 0; i < n; i++ {
			m := Kmer(rng.Uint64() % keyRange) // 0 is the all-A k-mer
			if i%50 == 7 {
				m = Kmer(rng.Uint64() >> 2) // sparse keys far from the dense range
			}
			v := [2]int32{int32(rng.Intn(1 << 20)), int32(i)}
			occ.Add(m, v)
			refOcc.add(m, v)
			small.Put(small.Key(m), int32(i))
			refSmall.add(m, int32(i))
			probe = append(probe, m+Kmer(keyRange), Kmer(rng.Uint64()>>2))
		}
		probe = append(probe, 0)
		occ.Freeze()
		small.Freeze()
		checkMultimap(t, occ, &refOcc, probe, 8)
		checkMultimap(t, small, &refSmall, probe, 4)
	}
}

// TestMultimapEmpty: a table frozen with no pairs answers nil for
// every key, the all-A k-mer included.
func TestMultimapEmpty(t *testing.T) {
	tab := NewMultimap[uint64](0, 0)
	tab.Freeze()
	checkMultimap(t, tab, &multimapOracle[uint64]{}, []Kmer{0, 1, 1 << 40}, 8)
}

// TestMultimapResetReuses rebuilds one table item after item, the way
// the mate index does, and checks each build against its own oracle.
func TestMultimapResetReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tab Multimap[int32]
	for item := 0; item < 6; item++ {
		n := []int{300, 20, 0, 500, 1, 64}[item]
		tab.Reset(n/3, n/3)
		var ref multimapOracle[int32]
		for i := 0; i < n; i++ {
			m := Kmer(rng.Intn(40))
			tab.Add(m, int32(i))
			ref.add(m, int32(i))
		}
		tab.Freeze()
		checkMultimap(t, &tab, &ref, []Kmer{40, 41, 0}, 4)
	}
}

// FuzzMultimap drives the build from arbitrary bytes: the first byte is
// the hint, then each pair of bytes is one (key, value) put. Keys fold
// into a small range so rows repeat, and 0 (the all-A k-mer) is common.
func FuzzMultimap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 3, 4, 0, 5})
	f.Add([]byte{200, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		hint := 0
		if len(data) > 0 {
			hint, data = int(data[0]), data[1:]
		}
		tab := NewMultimap[uint64](hint, hint)
		var ref multimapOracle[uint64]
		probe := []Kmer{0, 1 << 20}
		for i := 0; i+1 < len(data); i += 2 {
			m := Kmer(data[i] % 23)
			if data[i] >= 230 {
				m = Kmer(data[i]) << 30
			}
			v := uint64(data[i+1])<<32 | uint64(i)
			tab.Add(m, v)
			ref.add(m, v)
			probe = append(probe, m+23)
		}
		tab.Freeze()
		checkMultimap(t, tab, &ref, probe, 8)
	})
}
