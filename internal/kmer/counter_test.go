package kmer

import (
	"math"
	"math/rand"
	"testing"
)

// counterOracle is the map a Counter must agree with: each k-mer's
// saturated count and its dense id, in first-insertion order.
type counterOracle struct {
	count map[Kmer]uint64
	id    map[Kmer]int32
}

func newCounterOracle() *counterOracle {
	return &counterOracle{count: map[Kmer]uint64{}, id: map[Kmer]int32{}}
}

func (o *counterOracle) add(m Kmer, delta uint32) {
	if _, ok := o.id[m]; !ok {
		o.id[m] = int32(len(o.id))
	}
	o.count[m] = min(o.count[m]+uint64(delta), math.MaxUint32)
}

// check requires c to hold exactly the oracle's k-mers, with its counts
// and ids, through GetHash, ForEach and ForEachCount, and to miss an
// absent one.
func (o *counterOracle) check(t *testing.T, c *Counter, label string) {
	t.Helper()
	if c.Len() != len(o.id) {
		t.Fatalf("%s: Len = %d, want %d", label, c.Len(), len(o.id))
	}
	seen := 0
	c.ForEach(func(m Kmer, id int32, count uint32) {
		seen++
		want, ok := o.id[m]
		if !ok || id != want || uint64(count) != o.count[m] {
			t.Fatalf("%s: ForEach gave %v id %d count %d, want id %d count %d (known %v)",
				label, m, id, count, want, o.count[m], ok)
		}
		if got := c.GetHash(m.Hash()); got != count {
			t.Fatalf("%s: GetHash(%v) = %d, want %d", label, m, got, count)
		}
	})
	if seen != len(o.id) {
		t.Fatalf("%s: ForEach visited %d of %d", label, seen, len(o.id))
	}
	counts := make(map[int32]uint64, len(o.id))
	c.ForEachCount(func(id int32, count uint32) { counts[id] = uint64(count) })
	for m, id := range o.id {
		if got, ok := counts[id]; !ok || got != o.count[m] {
			t.Fatalf("%s: ForEachCount gave id %d count %d (listed %v), want %d", label, id, got, ok, o.count[m])
		}
	}
	if len(counts) != len(o.id) {
		t.Fatalf("%s: ForEachCount listed %d ids, want %d", label, len(counts), len(o.id))
	}
	if got := c.GetHash(Kmer(1 << 50).Hash()); got != 0 {
		t.Fatalf("%s: absent k-mer counted %d", label, got)
	}
}

// TestCounterDifferential pins Counter against a map oracle: counts
// and first-insertion dense ids on both sides of every resize, counts
// saturating at MaxUint32, the all-A k-mer (whose hash is 0, the empty
// slot's key), and a Reset that refills the same memory with ids that
// start again from zero.
func TestCounterDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewCounter(0)
	for round := 0; round < 3; round++ {
		c.Reset()
		o := newCounterOracle()
		if c.GetHash(Kmer(0).Hash()) != 0 {
			t.Fatalf("round %d: all-A k-mer counted after Reset", round)
		}
		size := c.MemBytes()
		resizes := 0
		for o.count[0] == 0 || len(o.id) < 3000 {
			m := Kmer(rng.Int63n(1 << 42))
			switch rng.Intn(4) {
			case 0: // a repeat
				m = Kmer(rng.Intn(len(o.id) + 1))
			case 1:
				m = 0 // the all-A k-mer
			}
			delta := uint32(rng.Intn(3))
			if rng.Intn(50) == 0 {
				delta = math.MaxUint32 - 1
			}
			before := c.MemBytes()
			c.Add(m, delta)
			o.add(m, delta)
			if c.MemBytes() != before {
				resizes++
				o.check(t, c, "after a resize")
			}
		}
		o.check(t, c, "filled")
		if round == 0 {
			if resizes < 8 {
				t.Fatalf("%d resizes: the boundaries went untested", resizes)
			}
		} else if c.MemBytes() != size {
			t.Fatalf("round %d: refill after Reset resized %d -> %d bytes", round, size, c.MemBytes())
		}
		if want := int64(16 * flatSlots(c.Len())); c.MemBytes() != want {
			t.Fatalf("round %d: MemBytes %d, want %d for %d k-mers at <= 2/3 load", round, c.MemBytes(), want, c.Len())
		}
	}
}

// Counts saturate at MaxUint32 instead of wrapping, including a delta
// that arrives at a saturated count.
func TestCounterSaturates(t *testing.T) {
	c := NewCounter(0)
	c.Add(7, math.MaxUint32-1)
	c.Add(7, 5)
	c.Add(7, math.MaxUint32)
	c.Add(9, math.MaxUint32)
	c.Add(9, 0)
	if got7, got9 := c.GetHash(Kmer(7).Hash()), c.GetHash(Kmer(9).Hash()); got7 != math.MaxUint32 || got9 != math.MaxUint32 || c.Len() != 2 {
		t.Errorf("counts %d, %d over %d k-mers, want both saturated over 2", got7, got9, c.Len())
	}
}

// Hash is a bijection: unmixKmer recovers the k-mer a Counter slot
// keeps only the hash of.
func TestHashInverts(t *testing.T) {
	for _, pair := range [][2]uint64{{0xbf58476d1ce4e5b9, 0x96de1b173f119089}, {0x94d049bb133111eb, 0x319642b2d24d8ec3}} {
		if pair[0]*pair[1] != 1 {
			t.Fatalf("%#x is not the inverse of %#x mod 2^64", pair[1], pair[0])
		}
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		x := rng.Uint64()
		if i < 3 {
			x = []uint64{0, math.MaxUint64, 1<<62 - 1}[i]
		}
		if got := unmixKmer(Kmer(x).Hash()); got != x {
			t.Fatalf("unmixKmer(Hash(%#x)) = %#x", x, got)
		}
	}
}
