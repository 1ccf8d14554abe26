package kmer

import (
	"fmt"
	"math"
)

// Counter is the k-mer spine's counting layout: one open-addressing,
// linear-probing array of 16-byte slots, each holding a k-mer's key,
// its count and its dense id, so a probe reads one cache line.
// Jellyfish's partitions, dsk's per-partition pass and the table
// rebuilt from a dump all count in it, and every reader of the count
// table probes it in place. They share one overflow rule: a count
// saturates at math.MaxUint32 (as Jellyfish's fixed-width counters do)
// instead of wrapping. Dense ids are 0..Len()-1 in first-insertion
// order. Like FlatSet it is single-writer; readers may share it once
// the writer is done.
//
// A slot is keyed by the k-mer's Hash, not the k-mer: the splitmix64
// finaliser is a bijection, so the hash names the k-mer (unmixKmer
// recovers it), and a caller that hashed a k-mer to pick a partition
// probes the partition's counter with the same value (AddHash,
// GetHash). The home slot is the hash's low bits, and a resize re-places
// keys without hashing them again.
type Counter struct {
	slots []counterSlot
	mask  uint64
	n     int32
}

type counterSlot struct {
	hash  uint64
	count uint32
	id    int32 // dense id + 1; 0 marks an empty slot
}

// NewCounter allocates a counter pre-sized for capacityHint distinct
// k-mers at ≤ 2/3 load; it grows if the hint was low.
func NewCounter(capacityHint int) *Counter {
	size := flatSlots(capacityHint)
	return &Counter{slots: make([]counterSlot, size), mask: uint64(size - 1)}
}

// Add raises m's count by delta, saturating.
func (c *Counter) Add(m Kmer, delta uint32) { c.AddHash(m.Hash(), delta) }

// AddHash is Add for the k-mer whose Hash is h. Panics with a
// diagnostic if the counter is saturated (maxFlatLen distinct k-mers)
// and the k-mer is new.
func (c *Counter) AddHash(h uint64, delta uint32) {
	if 3*(int(c.n)+1) > 2*len(c.slots) && len(c.slots) < maxFlatSlots {
		c.resize(2 * len(c.slots))
	}
	for i := h & c.mask; ; i = (i + 1) & c.mask {
		s := &c.slots[i]
		if s.id == 0 {
			if c.n == maxFlatLen {
				panic(fmt.Sprintf("kmer: Counter saturated: %d distinct k-mers exhaust the int32 dense-id space", c.n))
			}
			c.n++
			*s = counterSlot{hash: h, count: delta, id: c.n}
			return
		}
		if s.hash == h {
			if sum := s.count + delta; sum >= delta {
				s.count = sum
			} else {
				s.count = math.MaxUint32
			}
			return
		}
	}
}

// GetHash returns the count of the k-mer whose Hash is h, 0 if it was
// never added. Wait-free once the writer is done.
func (c *Counter) GetHash(h uint64) uint32 {
	for i := h & c.mask; ; i = (i + 1) & c.mask {
		s := &c.slots[i]
		if s.id == 0 {
			return 0
		}
		if s.hash == h {
			return s.count
		}
	}
}

// MemBytes returns the resident size of the counter's slot array.
func (c *Counter) MemBytes() int64 { return int64(len(c.slots)) * 16 }

// Len returns the number of distinct k-mers counted.
func (c *Counter) Len() int { return int(c.n) }

// Reset empties the counter, keeping its memory.
func (c *Counter) Reset() {
	clear(c.slots)
	c.n = 0
}

// ForEach calls fn for every k-mer with its dense id and count, in
// slot order (deterministic for a deterministic build, but not sorted).
func (c *Counter) ForEach(fn func(m Kmer, id int32, count uint32)) {
	for _, s := range c.slots {
		if s.id != 0 {
			fn(Kmer(unmixKmer(s.hash)), s.id-1, s.count)
		}
	}
}

// ForEachCount is ForEach for a caller that needs no k-mer: it calls
// fn with every dense id and count, in slot order, without recovering
// the k-mers.
func (c *Counter) ForEachCount(fn func(id int32, count uint32)) {
	for _, s := range c.slots {
		if s.id != 0 {
			fn(s.id-1, s.count)
		}
	}
}

// resize re-places every slot in an array of size slots; dense ids and
// counts move with their keys.
func (c *Counter) resize(size int) {
	old := c.slots
	c.slots = make([]counterSlot, size)
	c.mask = uint64(size - 1)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		j := s.hash & c.mask
		for c.slots[j].id != 0 {
			j = (j + 1) & c.mask
		}
		c.slots[j] = s
	}
}
