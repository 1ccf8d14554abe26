package kmer

import "fmt"

// FlatSet is an open-addressing, linear-probing set of k-mers that
// assigns every distinct k-mer a dense id (0..Len()-1) in insertion
// order. It is the shared substrate of the Chrysalis performance
// kernels: the Multimap row tables, the frozen read-count table and
// the bundle ownership table all key their payload arrays by FlatSet
// ids instead of boxing slices inside a Go map.
//
// The lifecycle is build-then-freeze: Add may only be called by a
// single goroutine; once the build completes (publish via sync.Once,
// channel, or WaitGroup), Lookup is wait-free and safe for any number
// of concurrent readers because nothing mutates.
//
// A slot stores (kmer<<1)|1 so that the zero word means "empty" even
// for the all-A k-mer; with k ≤ 31 the shifted key still fits 63 bits.
type FlatSet struct {
	slots []uint64 // (uint64(kmer)<<1)|1; 0 = empty
	ids   []int32  // slot -> dense id, parallel to slots
	mask  uint64
	n     int32
}

// minFlatSlots keeps degenerate tables probe-friendly; maxFlatSlots
// stops growth once the slot array can already hold every id the
// int32 dense-id space allows (with one slot spare, so a saturated
// table still has an empty slot for the probe loop to land on).
const (
	minFlatSlots = 16
	maxFlatSlots = 1 << 31
)

// NewFlatSet allocates a set pre-sized for capacityHint distinct
// k-mers at ≤ 2/3 load. The set grows transparently if the hint was
// low.
func NewFlatSet(capacityHint int) *FlatSet {
	size := minFlatSlots
	for 2*size < 3*capacityHint {
		size <<= 1
	}
	return &FlatSet{
		slots: make([]uint64, size),
		ids:   make([]int32, size),
		mask:  uint64(size - 1),
	}
}

// mixKmer is a splitmix64 finaliser spreading k-mer bits across the
// probe sequence (the 2-bit packing leaves heavy low-bit structure).
func mixKmer(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash is the finaliser of m: the hash FlatSet probes from (its low
// bits) and OwnerRank and the counting partitions split k-mer space by.
func (m Kmer) Hash() uint64 { return mixKmer(uint64(m)) }

// maxFlatLen is the dense-id capacity of a FlatSet: ids are int32, so
// a table holds at most MaxInt32 distinct k-mers. Far beyond any table
// this pipeline builds, but a pathological insert stream must fail
// loudly — one more insertion would wrap the next id negative and
// silently corrupt every payload array keyed by it.
const maxFlatLen = 1<<31 - 1

// Add returns m's dense id, inserting it if absent. Build-phase only:
// not safe for concurrent use. Panics with a diagnostic if the table
// is saturated (maxFlatLen distinct k-mers) and m is not already
// present.
func (s *FlatSet) Add(m Kmer) int32 {
	// The load check runs in int: the old int32 form (3*(s.n+1)) wraps
	// before the widening conversion once n nears the id ceiling.
	if 3*(int(s.n)+1) > 2*len(s.slots) && len(s.slots) < maxFlatSlots {
		s.grow()
	}
	key := uint64(m)<<1 | 1
	i := mixKmer(uint64(m)) & s.mask
	for {
		switch s.slots[i] {
		case 0:
			if s.n == maxFlatLen {
				panic(fmt.Sprintf("kmer: FlatSet saturated: %d distinct k-mers exhaust the int32 dense-id space", s.n))
			}
			s.slots[i] = key
			s.ids[i] = s.n
			s.n++
			return s.ids[i]
		case key:
			return s.ids[i]
		}
		i = (i + 1) & s.mask
	}
}

// MemBytes returns the resident size of the set's backing arrays — the
// term the sharding layer charges per rank for its shard stores.
func (s *FlatSet) MemBytes() int64 { return int64(len(s.slots))*8 + int64(len(s.ids))*4 }

// Lookup returns m's dense id, or ok=false if m was never added.
// Wait-free once the build phase is over.
func (s *FlatSet) Lookup(m Kmer) (int32, bool) {
	key := uint64(m)<<1 | 1
	i := mixKmer(uint64(m)) & s.mask
	for {
		switch s.slots[i] {
		case 0:
			return 0, false
		case key:
			return s.ids[i], true
		}
		i = (i + 1) & s.mask
	}
}

// Contains reports whether m was added.
func (s *FlatSet) Contains(m Kmer) bool {
	_, ok := s.Lookup(m)
	return ok
}

// Len returns the number of distinct k-mers added.
func (s *FlatSet) Len() int { return int(s.n) }

// Reset empties the set, keeping its slot array, so one table can be
// refilled partition after partition without reallocating.
func (s *FlatSet) Reset() {
	clear(s.slots)
	s.n = 0
}

// ForEach calls fn for every (k-mer, id) pair, in slot order. Ids are
// dense and insertion-ordered; slot order is an implementation detail
// (deterministic for a deterministic build, but not sorted).
func (s *FlatSet) ForEach(fn func(m Kmer, id int32)) {
	for i, key := range s.slots {
		if key != 0 {
			fn(Kmer(key>>1), s.ids[i])
		}
	}
}

// grow doubles the table and re-places every key; dense ids are
// preserved, so payload arrays addressed by id never move.
func (s *FlatSet) grow() {
	oldSlots, oldIds := s.slots, s.ids
	size := 2 * len(oldSlots)
	s.slots = make([]uint64, size)
	s.ids = make([]int32, size)
	s.mask = uint64(size - 1)
	for i, key := range oldSlots {
		if key == 0 {
			continue
		}
		j := mixKmer(key>>1) & s.mask
		for s.slots[j] != 0 {
			j = (j + 1) & s.mask
		}
		s.slots[j] = key
		s.ids[j] = oldIds[i]
	}
}
