package kmer

import "math"

// Counter is the k-mer spine's counting layout: a FlatSet giving each
// distinct k-mer a dense id, and one uint32 count per id. Jellyfish's
// partitions, dsk's per-partition pass and the table rebuilt from a
// dump all count in it, so they share one overflow rule: a count
// saturates at math.MaxUint32 (as Jellyfish's fixed-width counters
// do) instead of wrapping. Like FlatSet it is single-writer; readers
// may share it once the writer is done.
type Counter struct {
	set    *FlatSet
	counts []uint32 // by dense id
}

// NewCounter allocates a counter pre-sized for capacityHint distinct
// k-mers; it grows if the hint was low.
func NewCounter(capacityHint int) *Counter {
	return &Counter{set: NewFlatSet(capacityHint), counts: make([]uint32, 0, capacityHint)}
}

// Add raises m's count by delta, saturating.
func (c *Counter) Add(m Kmer, delta uint32) {
	id := c.set.Add(m)
	if int(id) == len(c.counts) {
		c.counts = append(c.counts, delta)
		return
	}
	if sum := c.counts[id] + delta; sum >= delta {
		c.counts[id] = sum
	} else {
		c.counts[id] = math.MaxUint32
	}
}

// Get returns m's count, 0 if it was never added.
func (c *Counter) Get(m Kmer) uint32 {
	if id, ok := c.set.Lookup(m); ok {
		return c.counts[id]
	}
	return 0
}

// MemBytes returns the resident size of the counter: its set and its
// count array.
func (c *Counter) MemBytes() int64 { return c.set.MemBytes() + int64(cap(c.counts))*4 }

// Len returns the number of distinct k-mers counted.
func (c *Counter) Len() int { return len(c.counts) }

// Counts returns the counts by dense id; the caller must not modify
// the slice.
func (c *Counter) Counts() []uint32 { return c.counts }

// Reset empties the counter, keeping its memory.
func (c *Counter) Reset() {
	c.set.Reset()
	c.counts = c.counts[:0]
}

// ForEachID calls fn for every (k-mer, dense id) pair, in slot order;
// Counts()[id] is the k-mer's count.
func (c *Counter) ForEachID(fn func(m Kmer, id int32)) { c.set.ForEach(fn) }

// ForEach calls fn for every (k-mer, count) pair, in slot order.
func (c *Counter) ForEach(fn func(m Kmer, count uint32)) {
	c.set.ForEach(func(m Kmer, id int32) { fn(m, c.counts[id]) })
}
