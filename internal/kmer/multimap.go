package kmer

import (
	"slices"
	"unsafe"
)

// Multimap is a frozen k-mer → []V table: a FlatSet gives each distinct
// k-mer a dense id in first-insertion order, and the id indexes a
// prefix-summed row of one value array (starts[id]:starts[id+1] bounds
// the row in vals). It is the one-to-many lookup every welding loop,
// shard store, tile replica, seed table and mate index is built on.
//
// The lifecycle is build-then-freeze. The build (Key, Put, Add) appends
// pairs in input order; Freeze groups them by id with a stable counting
// sort, so each row lists its values in the order they were put — the
// order the probe-until-first-match unit meters depend on. After Freeze,
// Row is wait-free and safe for any number of concurrent readers.
type Multimap[V any] struct {
	set    *FlatSet
	starts []int32 // len Len()+1 once frozen
	vals   []V     // frozen: the values grouped by id
	pend   []V     // build scratch: the values in input order
	ids    []int32 // build scratch: the id of each pending value
	reused bool    // built by Reset: Freeze keeps the scratch for the next build
}

// NewMultimap returns an empty table whose FlatSet is sized for keys
// distinct k-mers (the term MemBytes charges for it) and whose value
// buffers are reserved for vals pairs. Both grow if the hints were low.
func NewMultimap[V any](keys, vals int) *Multimap[V] {
	return &Multimap[V]{set: NewFlatSet(keys), pend: make([]V, 0, vals), ids: make([]int32, 0, vals)}
}

// Reset empties the table for a new build with fresh hints. It keeps
// every buffer, the build scratch included, so a table rebuilt item
// after item reallocates only its FlatSet.
func (t *Multimap[V]) Reset(keys, vals int) {
	t.set = NewFlatSet(keys)
	t.starts, t.vals = t.starts[:0], t.vals[:0]
	t.pend = slices.Grow(t.pend[:0], vals)
	t.ids = slices.Grow(t.ids[:0], vals)
	t.reused = true
}

// RowsOver starts a table over set, an existing, complete set whose
// ids are the rows' order, without copying or rehashing it: Push
// appends a value to the open row and EndRow closes it as the next
// id's, so after set.Len() EndRows the table reads like a frozen one.
// A key's row may be empty. The set is shared: it must not change
// while the table is in use. vals reserves the value buffer.
func RowsOver[V any](set *FlatSet, vals int) *Multimap[V] {
	return &Multimap[V]{set: set, starts: make([]int32, 1, set.Len()+1), vals: make([]V, 0, vals)}
}

// Push appends v to the open row of a RowsOver table.
func (t *Multimap[V]) Push(v V) { t.vals = append(t.vals, v) }

// EndRow closes the open row of a RowsOver table as the next id's.
func (t *Multimap[V]) EndRow() { t.starts = append(t.starts, int32(len(t.vals))) }

// Key interns m and returns its dense id. Build phase only.
func (t *Multimap[V]) Key(m Kmer) int32 { return t.set.Add(m) }

// Put appends v to the row of id (an id Key returned). Build phase only.
func (t *Multimap[V]) Put(id int32, v V) {
	t.ids = append(t.ids, id)
	t.pend = append(t.pend, v)
}

// Add appends v to m's row. Build phase only.
func (t *Multimap[V]) Add(m Kmer, v V) { t.Put(t.Key(m), v) }

// Freeze ends the build: a stable counting sort moves the values into
// rows by id. It drops the build scratch unless the table is Reset
// between builds.
func (t *Multimap[V]) Freeze() {
	n := t.set.Len()
	t.starts = append(t.starts[:0], make([]int32, n+1)...)
	for _, id := range t.ids {
		t.starts[id+1]++
	}
	for id := 0; id < n; id++ {
		t.starts[id+1] += t.starts[id]
	}
	// starts[id] walks row id's slots and ends on the next row's start,
	// so a shift restores it.
	t.vals = slices.Grow(t.vals[:0], len(t.pend))[:len(t.pend)]
	for i, id := range t.ids {
		t.vals[t.starts[id]] = t.pend[i]
		t.starts[id]++
	}
	copy(t.starts[1:], t.starts[:n])
	t.starts[0] = 0
	t.pend, t.ids = t.pend[:0], t.ids[:0]
	if !t.reused {
		t.pend, t.ids = nil, nil
	}
}

// Row returns m's values in input order, or nil if m was never added.
// The slice aliases the table; callers must not mutate it. Wait-free
// once frozen.
func (t *Multimap[V]) Row(m Kmer) []V {
	id, ok := t.set.Lookup(m)
	if !ok {
		return nil
	}
	return t.vals[t.starts[id]:t.starts[id+1]:t.starts[id+1]]
}

// Len returns the number of distinct k-mers.
func (t *Multimap[V]) Len() int { return t.set.Len() }

// Values returns every stored value, row after row in id order. The
// slice aliases the table; callers must not mutate it.
func (t *Multimap[V]) Values() []V { return t.vals }

// MemBytes returns the resident size of the lookup structures: the
// FlatSet, the row offsets and the values.
func (t *Multimap[V]) MemBytes() int64 {
	var v V
	return t.set.MemBytes() + int64(len(t.starts))*4 + int64(len(t.vals))*int64(unsafe.Sizeof(v))
}
