// Package jellyfish is the k-mer counting stage of the pipeline,
// mirroring the role of Jellyfish in Trinity: it counts canonical (or
// stranded) k-mers across millions of reads into hash-partitioned flat
// counters, and dumps the counts in the text format consumed by
// Inchworm ("count kmer" per line, like `jellyfish dump -c`).
package jellyfish

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"

	"gotrinity/internal/kmer"
	"gotrinity/internal/omp"
	"gotrinity/internal/seq"
	"gotrinity/internal/textio"
)

// Options configures a counting run.
type Options struct {
	K         int  // k-mer length (1..31)
	Canonical bool // count k-mer and reverse complement together
	MinCount  int  // drop k-mers rarer than this at dump time (error filter)
	Threads   int  // worker goroutines; 0 means GOMAXPROCS
	Shards    int  // hash partitions; 0 means 4×threads rounded up to pow2
}

func (o *Options) normalize() error {
	if o.K <= 0 || o.K > kmer.MaxK {
		return fmt.Errorf("jellyfish: k=%d out of range 1..%d", o.K, kmer.MaxK)
	}
	if o.Threads <= 0 {
		o.Threads = omp.DefaultThreads()
	}
	if o.MinCount <= 0 {
		o.MinCount = 1
	}
	if o.Shards <= 0 {
		o.Shards = nextPow2(4 * o.Threads)
	} else {
		o.Shards = nextPow2(o.Shards)
	}
	return nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// CountTable holds k-mer counts in hash partitions, each a flat
// kmer.Counter (dense ids + a count array) behind its own lock. Bulk
// counting never takes a lock per k-mer: countWith applies whole
// batches to a partition (DESIGN.md §8, "the k-mer spine").
type CountTable struct {
	K     int
	parts []partition
	shift uint // a k-mer's partition is the top 64-shift bits of its Hash
}

type partition struct {
	mu sync.Mutex
	c  *kmer.Counter
}

// NewCountTable allocates an empty table with the given k and
// partition count (rounded to a power of two).
func NewCountTable(k, shards int) *CountTable {
	shards = nextPow2(shards)
	t := &CountTable{K: k, parts: make([]partition, shards), shift: 64}
	for p := 1; p < shards; p <<= 1 {
		t.shift--
	}
	for i := range t.parts {
		t.parts[i].c = kmer.NewCounter(0)
	}
	return t
}

// part returns m's partition. It takes the hash's top bits because
// FlatSet probes from the low bits of the same hash: low-bit partitions
// would leave every k-mer of a partition sharing its home slots' low
// bits.
func (t *CountTable) part(m kmer.Kmer) *partition {
	return &t.parts[m.Hash()>>t.shift]
}

// Add increments the count of m by delta, saturating at MaxUint32.
func (t *CountTable) Add(m kmer.Kmer, delta uint32) {
	p := t.part(m)
	p.mu.Lock()
	p.c.Add(m, delta)
	p.mu.Unlock()
}

// Get returns the count of m.
func (t *CountTable) Get(m kmer.Kmer) uint32 {
	p := t.part(m)
	p.mu.Lock()
	c := p.c.Get(m)
	p.mu.Unlock()
	return c
}

// each calls fn on every partition's counter in turn, under its lock.
func (t *CountTable) each(fn func(c *kmer.Counter)) {
	for i := range t.parts {
		p := &t.parts[i]
		p.mu.Lock()
		fn(p.c)
		p.mu.Unlock()
	}
}

// Distinct returns the number of distinct k-mers stored.
func (t *CountTable) Distinct() int {
	n := 0
	t.each(func(c *kmer.Counter) { n += c.Len() })
	return n
}

// Total returns the total number of k-mer occurrences counted.
func (t *CountTable) Total() uint64 {
	var n uint64
	t.each(func(c *kmer.Counter) {
		for _, v := range c.Counts() {
			n += uint64(v)
		}
	})
	return n
}

// Frozen is an immutable, flat, open-addressing snapshot of a
// CountTable. Get is a lock-free linear probe — no shard mutex, no map
// header chasing — which is what the Chrysalis welding loops need:
// weldSupport issues one or two Get probes per window position across
// every candidate weld, so the sharded table's per-probe Lock/Unlock
// dominated loop 1's wall clock. Freeze once after counting completes,
// then share the Frozen table across any number of reader goroutines.
type Frozen struct {
	K       int
	entries []frozenEntry
	mask    uint64
	shift   uint // 64 - log2(len(entries)): Fibonacci hash takes top bits
	n       int
}

// frozenEntry interleaves the probe key with its count so a Get costs
// exactly one cache line per probe step. key is (kmer<<1)|1 — the low
// tag bit distinguishes the all-A k-mer (which packs to 0) from an
// empty slot; k ≤ 31 leaves room for the shift.
type frozenEntry struct {
	key   uint64
	count uint32
}

// Freeze snapshots the table into a Frozen flat table, partition by
// partition under each partition's lock; concurrent Adds that race the
// freeze land in either the snapshot or only the live table, so callers
// should freeze only after counting has completed.
func (t *CountTable) Freeze() *Frozen {
	f := newFrozen(t.K, t.Distinct())
	t.each(func(c *kmer.Counter) { c.ForEach(f.put) })
	return f
}

// FrozenFromEntries builds a Frozen table directly from (k-mer, count)
// pairs — the constructor the sharded k-mer layer uses for owner-rank
// shards and remote-answer caches, which materialise partial tables
// without ever holding a full CountTable. Entries must name distinct
// k-mers; Get results are identical to a Freeze of a table holding the
// same pairs.
func FrozenFromEntries(k int, entries []Entry) *Frozen {
	f := newFrozen(k, len(entries))
	for _, e := range entries {
		f.put(e.Kmer, e.Count)
	}
	return f
}

// newFrozen allocates an empty snapshot sized for n distinct k-mers.
func newFrozen(k, n int) *Frozen {
	slots := 16
	shift := uint(60)
	for slots < 3*n/2+1 {
		slots <<= 1
		shift--
	}
	return &Frozen{K: k, entries: make([]frozenEntry, slots), mask: uint64(slots - 1), shift: shift, n: n}
}

// put places a k-mer the snapshot does not hold yet (build phase only).
func (f *Frozen) put(m kmer.Kmer, count uint32) {
	j := (uint64(m) * fibMul) >> f.shift
	for f.entries[j].key != 0 {
		j = (j + 1) & f.mask
	}
	f.entries[j] = frozenEntry{uint64(m)<<1 | 1, count}
}

// ForEach calls fn for every (k-mer, count) pair in slot order —
// deterministic for a deterministically built snapshot. The sharding
// layer uses it to carve a full source table into owner shards.
func (f *Frozen) ForEach(fn func(m kmer.Kmer, count uint32)) {
	for _, e := range f.entries {
		if e.key != 0 {
			fn(kmer.Kmer(e.key>>1), e.count)
		}
	}
}

// MemBytes returns the resident size of the snapshot's backing array —
// the per-rank memory term the sharding layer meters.
func (f *Frozen) MemBytes() int64 {
	return int64(len(f.entries)) * 16 // frozenEntry: 8-byte key + padded 4-byte count
}

// fibMul is 2^64/phi — Fibonacci hashing. One multiply spreads the
// k-mer's low-entropy bits into the top bits that index the table.
const fibMul = 0x9e3779b97f4a7c15

// Get returns the count of m. Wait-free; safe for concurrent readers.
func (f *Frozen) Get(m kmer.Kmer) uint32 {
	key := uint64(m)<<1 | 1
	i := (uint64(m) * fibMul) >> f.shift
	for {
		e := f.entries[i]
		if e.key == key {
			return e.count
		}
		if e.key == 0 {
			return 0
		}
		i = (i + 1) & f.mask
	}
}

// Distinct returns the number of distinct k-mers in the snapshot.
func (f *Frozen) Distinct() int { return f.n }

// Total returns the total number of occurrences in the snapshot.
func (f *Frozen) Total() uint64 {
	var n uint64
	for _, e := range f.entries {
		if e.key != 0 {
			n += uint64(e.count)
		}
	}
	return n
}

// Entry is one (k-mer, count) pair in a dump.
type Entry struct {
	Kmer  kmer.Kmer
	Count uint32
}

// Entries snapshots the table as a slice filtered by minCount, sorted
// by k-mer value for deterministic output.
func (t *CountTable) Entries(minCount int) []Entry {
	out := t.collect(minCount)
	SortByKmer(out)
	return out
}

// collect returns the entries with count ≥ minCount, partition by
// partition, each partition's in dense-id (first-insertion) order. A
// table FromEntries built from sorted entries so collects them sorted,
// and the radix sort skips their k-mer passes.
func (t *CountTable) collect(minCount int) []Entry {
	out := make([]Entry, t.Distinct())
	base := 0
	t.each(func(c *kmer.Counter) {
		counts := c.Counts()
		c.ForEachID(func(m kmer.Kmer, id int32) {
			out[base+int(id)] = Entry{m, counts[id]}
		})
		base += len(counts)
	})
	n := 0
	for _, e := range out {
		if int(e.Count) >= minCount {
			out[n] = e
			n++
		}
	}
	return out[:n]
}

// SortByKmer sorts entries by increasing k-mer value — the order
// Entries and dsk.Count return.
func SortByKmer(entries []Entry) { radixSort(entries, 8) }

// SortByAbundance sorts entries by decreasing count, ties by
// increasing k-mer: the dump's line order and Inchworm's seed order.
func SortByAbundance(entries []Entry) { radixSort(entries, 12) }

// radixSort is a stable LSD radix sort over an entry's first `passes`
// byte digits: the k-mer's eight bytes, least significant first, then
// the complemented count's four — so 8 passes order by k-mer and 12 by
// decreasing count, ties by k-mer. A pass whose digit is the same in
// every entry is skipped (a 25-mer costs 7 passes, small counts one),
// as are the k-mer passes of entries that arrive in k-mer order, and
// every pass of entries that arrive in abundance order (a dump read
// back). It replaces sort.Slice, whose reflection-based swaps took
// longer over a table's entries than counting them did.
func radixSort(a []Entry, passes int) {
	digit := func(e *Entry, pass int) uint64 {
		if pass < 8 {
			return uint64(e.Kmer) >> (8 * pass) & 255
		}
		return uint64(^e.Count) >> (8 * (pass - 8)) & 255
	}
	if passes == 12 && slices.IsSortedFunc(a, func(x, y Entry) int {
		return cmp.Or(cmp.Compare(y.Count, x.Count), cmp.Compare(x.Kmer, y.Kmer))
	}) {
		return
	}
	pass := 0
	if slices.IsSortedFunc(a, func(x, y Entry) int { return cmp.Compare(x.Kmer, y.Kmer) }) {
		pass = 8
	}
	src, dst := a, []Entry(nil)
	for ; pass < passes && len(a) > 1; pass++ {
		var offs [256]int
		for i := range src {
			offs[digit(&src[i], pass)]++
		}
		if offs[digit(&src[0], pass)] == len(src) {
			continue
		}
		if dst == nil {
			dst = make([]Entry, len(a))
		}
		sum := 0
		for d, n := range offs {
			offs[d], sum = sum, sum+n
		}
		for i := range src {
			d := digit(&src[i], pass)
			dst[offs[d]] = src[i]
			offs[d]++
		}
		src, dst = dst, src
	}
	if len(a) > 1 && &src[0] != &a[0] {
		copy(a, src)
	}
}

// FromEntries rebuilds a count table from dumped entries — the bridge
// from external counters (dsk's disk-partitioned pass, LoadFile) into
// the stages that consume a CountTable. It is a bulk build: one
// partition pre-sized for the entries, filled without locking. The
// rebuilt table is indistinguishable from one filled by Count over the
// same k-mers; an entry repeating a k-mer adds to its count.
func FromEntries(k int, entries []Entry) *CountTable {
	t := NewCountTable(k, 1)
	t.parts[0].c = kmer.NewCounter(len(entries))
	for _, e := range entries {
		t.parts[0].c.Add(e.Kmer, e.Count)
	}
	return t
}

// Count tallies the k-mers of every record into a fresh table.
func Count(recs []seq.Record, opt Options) (*CountTable, error) {
	return countWith(opt, len(recs), func(i int, emit func(kmer.Kmer)) {
		it := kmer.NewIterator(recs[i].Seq, opt.K)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			emit(m)
		}
	})
}

// batchLen is how many k-mers a worker gathers for one partition before
// applying them under that partition's lock: long enough that a
// partition's slots stay in the applying core's cache across a batch
// (measured 1.6x faster than 256 on both benchmark read sets, flat
// beyond 4096 — EXPERIMENTS.md "The k-mer spine off Go maps").
// readBlock is how many reads a worker claims at a time.
const (
	batchLen  = 4096
	readBlock = 64
)

// countWith is the one counting body behind Count and CountPacked;
// kmersOf emits read i's k-mers in order. Workers claim blocks of
// reads and route each k-mer into a worker-local batch for the
// partition that owns it; a full batch is applied under that
// partition's lock, so synchronisation is once per batchLen k-mers and
// batch memory is threads × partitions × batchLen k-mers whatever the
// input size. Increments commute, so every count — and everything
// derived from the table — is the same for any Threads × Shards.
func countWith(opt Options, n int, kmersOf func(i int, emit func(kmer.Kmer))) (*CountTable, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	t := NewCountTable(opt.K, opt.Shards)
	apply := func(p int, batch []kmer.Kmer) {
		part := &t.parts[p]
		part.mu.Lock()
		for _, m := range batch {
			part.c.Add(m, 1)
		}
		part.mu.Unlock()
	}
	batches := make([][][]kmer.Kmer, opt.Threads) // [worker][partition]
	emits := make([]func(kmer.Kmer), opt.Threads)
	for w := range batches {
		batch := make([][]kmer.Kmer, len(t.parts))
		batches[w] = batch
		emits[w] = func(m kmer.Kmer) {
			if opt.Canonical {
				m, _ = m.Canonical(opt.K)
			}
			p := m.Hash() >> t.shift
			batch[p] = append(batch[p], m)
			if len(batch[p]) == batchLen {
				apply(int(p), batch[p])
				batch[p] = batch[p][:0]
			}
		}
	}
	omp.ParallelFor(n, opt.Threads, omp.Schedule{Kind: omp.Dynamic, Chunk: readBlock},
		func(i, tid int) { kmersOf(i, emits[tid]) })
	for _, batch := range batches {
		for p := range batch {
			apply(p, batch[p])
		}
	}
	return t, nil
}

// Dump writes the table as "count<TAB>kmer" lines (decreasing count,
// then increasing k-mer), the text format Inchworm parses.
func Dump(w io.Writer, t *CountTable, minCount int) error {
	entries := t.collect(minCount)
	SortByAbundance(entries)
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for _, e := range entries {
		line = strconv.AppendUint(line[:0], uint64(e.Count), 10)
		line = append(line, '\t')
		line = e.Kmer.AppendDecode(line, t.K) // ascii-ok: dump-file boundary
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpFile writes the dump to path.
func DumpFile(path string, t *CountTable, minCount int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Dump(f, t, minCount); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load parses a dump produced by Dump back into entries. k must match
// the dump's k-mer length.
func Load(r io.Reader, k int) ([]Entry, error) {
	return load(r, k, 0)
}

// load is Load with a capacity hint for the result. Lines are parsed
// in the scanner's buffer: no string, field slice or k-mer copy is
// made per line.
func load(r io.Reader, k, sizeHint int) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	out := slices.Grow([]Entry(nil), sizeHint) // nil for an empty dump, as ever
	lineno := 0
	for sc.Scan() {
		lineno++
		count, rest := textio.NextField(sc.Bytes())
		if len(count) == 0 {
			continue
		}
		word, rest := textio.NextField(rest)
		if extra, _ := textio.NextField(rest); len(word) == 0 || len(extra) != 0 {
			return nil, fmt.Errorf("jellyfish: dump line %d: want 2 fields, got %d", lineno, len(bytes.Fields(sc.Bytes())))
		}
		c, err := strconv.ParseUint(string(count), 10, 32) // a short string that does not escape: no allocation
		if err != nil {
			return nil, fmt.Errorf("jellyfish: dump line %d: bad count %q", lineno, count)
		}
		if len(word) != k {
			return nil, fmt.Errorf("jellyfish: dump line %d: k-mer length %d, want %d", lineno, len(word), k)
		}
		m, ok := kmer.Encode(word, k)
		if !ok {
			return nil, fmt.Errorf("jellyfish: dump line %d: invalid k-mer %q", lineno, word)
		}
		out = append(out, Entry{m, uint32(c)})
	}
	return out, sc.Err()
}

// LoadFile reads a dump file.
func LoadFile(path string, k int) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// A dump line is at least "c\tkmer\n": the file size bounds the
	// entry count, so the result is allocated once.
	hint := 0
	if st, err := f.Stat(); err == nil {
		hint = int(st.Size() / int64(k+3))
	}
	return load(f, k, hint)
}
