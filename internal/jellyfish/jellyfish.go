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
	"math/bits"
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
// kmer.Counter behind its own lock. Bulk counting never takes a lock
// per k-mer: countWith applies whole batches to a partition (DESIGN.md
// §8, "the k-mer spine"). A finished table is read in place, through
// View and Freeze: no reader copies it.
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

// part returns the partition of the k-mer whose Hash is h. It takes
// the hash's top bits because the partition's Counter probes from the
// low bits of the same hash: low-bit partitions would leave every
// k-mer of a partition sharing its home slots' low bits.
func (t *CountTable) part(h uint64) *partition {
	return &t.parts[h>>t.shift]
}

// Add increments the count of m by delta, saturating at MaxUint32.
func (t *CountTable) Add(m kmer.Kmer, delta uint32) {
	h := m.Hash()
	p := t.part(h)
	p.mu.Lock()
	p.c.AddHash(h, delta)
	p.mu.Unlock()
}

// Get returns the count of m.
func (t *CountTable) Get(m kmer.Kmer) uint32 {
	h := m.Hash()
	p := t.part(h)
	p.mu.Lock()
	c := p.c.GetHash(h)
	p.mu.Unlock()
	return c
}

// MemBytes returns the resident size of the table: every partition's
// slot array.
func (t *CountTable) MemBytes() int64 {
	var n int64
	t.each(func(c *kmer.Counter) { n += c.MemBytes() })
	return n
}

// View is the part of a finished table that one of ranks owns under
// kmer.OwnerRank, served in place: the partitions its owner range
// covers, with nothing copied. Partitions and owners split the same top
// hash bits, so with at least ranks partitions (and ranks a power of
// two) a view is whole partitions; a partition that straddles owner
// ranges — a table with fewer partitions than ranks, such as
// FromEntries' single one — is charged to each owner by its share of
// the partition's hash range. No owner is charged more than the
// partitions it covers, and the owners' charges add up to at most the
// table's MemBytes.
type View struct {
	t     *CountTable
	bytes int64
}

// View returns rank's view of the table among ranks owners. The table
// must be finished: views read it lock-free.
func (t *CountTable) View(ranks, rank int) View {
	v := View{t: t}
	// Owner r holds the top 32 hash bits h with h*ranks>>32 == r:
	// [ceil(r*2^32/ranks), ceil((r+1)*2^32/ranks)).
	lo, hi := uint64(0), uint64(1)<<32
	if ranks > 1 {
		n := uint64(ranks)
		lo, hi = (uint64(rank)<<32+n-1)/n, (uint64(rank+1)<<32+n-1)/n
	}
	width := uint64(1) << 32 / uint64(len(t.parts))
	for p := range t.parts {
		from, to := max(lo, uint64(p)*width), min(hi, uint64(p+1)*width)
		if to <= from {
			continue
		}
		// bytes × overlap / width, floored, so the shares never sum
		// past the partition.
		h, l := bits.Mul64(uint64(t.parts[p].c.MemBytes()), to-from)
		q, _ := bits.Div64(h, l, width)
		v.bytes += int64(q)
	}
	return v
}

// Get returns the count of m, which the view's owner must own, without
// taking its partition's lock: valid because the table is finished, and
// safe for any number of concurrent readers. One hash picks the
// partition and the slot.
func (v View) Get(m kmer.Kmer) uint32 {
	h := m.Hash()
	return v.t.part(h).c.GetHash(h)
}

// MemBytes is what the view's owner is charged for holding it.
func (v View) MemBytes() int64 { return v.bytes }

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
		c.ForEach(func(_ kmer.Kmer, _ int32, count uint32) { n += uint64(count) })
	})
	return n
}

// Frozen is the whole finished table as one reader's handle: the View
// of a single owner, so Get probes the table in place, lock-free, and
// MemBytes charges the table itself.
type Frozen struct{ View }

// Freeze returns the table's read handle, copying nothing. Call it
// once counting has completed: its reads take no lock.
func (t *CountTable) Freeze() *Frozen { return &Frozen{t.View(1, 0)} }

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

// Kept returns the entries with count ≥ minCount in collect's order,
// unsorted: Entries for a caller that orders the entries itself, as
// Inchworm sorts its seeds by abundance.
func (t *CountTable) Kept(minCount int) []Entry { return t.collect(minCount) }

// collect returns the entries with count ≥ minCount, partition by
// partition, each partition's in dense-id (first-insertion) order. A
// table FromEntries built from sorted entries so collects them sorted,
// and the radix sort skips their k-mer passes. Only the kept entries
// are allocated, counted in a walk that recovers no k-mer. A partition
// that keeps every entry (as at minCount 1, unless Add stored a zero
// count) is then filled by id in one walk; one that drops some
// finds each kept entry's place through a per-id prefix count, reused
// partition to partition.
func (t *CountTable) collect(minCount int) []Entry {
	var kept []int // per partition
	total := 0
	t.each(func(c *kmer.Counter) {
		n := c.Len()
		if minCount > 0 { // Add may store a zero count
			n = 0
			c.ForEachCount(func(_ int32, count uint32) {
				if int(count) >= minCount {
					n++
				}
			})
		}
		kept = append(kept, n)
		total += n
	})
	out := make([]Entry, total)
	var at []int32 // at[id]: id's place among its partition's kept entries, -1 if dropped
	base, p := 0, 0
	t.each(func(c *kmer.Counter) {
		if kept[p] == c.Len() {
			c.ForEach(func(m kmer.Kmer, id int32, count uint32) { out[base+int(id)] = Entry{m, count} })
		} else {
			at = slices.Grow(at[:0], c.Len())[:c.Len()]
			c.ForEachCount(func(id int32, count uint32) {
				at[id] = -1
				if int(count) >= minCount {
					at[id] = 0
				}
			})
			n := int32(0)
			for id, keep := range at {
				if keep == 0 {
					at[id] = n
					n++
				}
			}
			c.ForEach(func(m kmer.Kmer, id int32, count uint32) {
				if j := at[id]; j >= 0 {
					out[base+int(j)] = Entry{m, count}
				}
			})
		}
		base += kept[p]
		p++
	})
	return out
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
// input size. A batch carries each k-mer's hash, which picked its
// partition and picks its slot: one hash per k-mer. Increments commute, so every count — and everything
// derived from the table — is the same for any Threads × Shards.
func countWith(opt Options, n int, kmersOf func(i int, emit func(kmer.Kmer))) (*CountTable, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	t := NewCountTable(opt.K, opt.Shards)
	apply := func(p int, batch []uint64) {
		part := &t.parts[p]
		part.mu.Lock()
		for _, h := range batch {
			part.c.AddHash(h, 1)
		}
		part.mu.Unlock()
	}
	batches := make([][][]uint64, opt.Threads) // [worker][partition]: k-mer hashes
	emits := make([]func(kmer.Kmer), opt.Threads)
	for w := range batches {
		batch := make([][]uint64, len(t.parts))
		batches[w] = batch
		emits[w] = func(m kmer.Kmer) {
			if opt.Canonical {
				m, _ = m.Canonical(opt.K)
			}
			h := m.Hash()
			p := h >> t.shift
			batch[p] = append(batch[p], h)
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
