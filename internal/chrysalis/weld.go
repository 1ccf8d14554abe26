package chrysalis

import (
	"encoding/binary"
	"runtime"
	"slices"
	"sync"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// A welding subsequence ("weld") is a window of length 2k — the seed
// k-mer plus flanking bases (§III-B) — harvested from a contig
// wherever the window also matches a sub-region of another contig, on
// either strand, and the whole window is supported by reads. Two
// contigs containing the same weld are clustered into one component.
// Double-strandedness matters: Inchworm is strand-specific, so the
// forward and reverse-complement contigs of one transcript are
// distinct contigs that Chrysalis must weld together, and most of
// loop 1's comparison work comes from exactly these pairs.
//
// The lookup structures here are the pipeline's hottest data: both
// loops probe them once per contig position. They are therefore frozen
// kmer.Multimap tables read lock-free by every rank goroutine: the
// contig occurrence index (k-mer → occurrence) for loop 1 and the weld
// index (core k-mer → weldRef) for loop 2. Rows keep emission order —
// contig-ascending, position-ascending for occurrences, weld-id order
// for references — the append order of the map-based implementation,
// so probe-until-first-match unit meters are byte-identical to it.

// occurrence records one position of a k-mer within the contig set.
type occurrence struct {
	contig int32
	pos    int32
}

// gffSource is the data loop 1's tables are a deterministic function
// of: the flattened k-mer scan of the contig set and the read-count
// table. The replicated occurrence index is built from it, and under
// sharding it stands in for the contig file and jellyfish dump on the
// shared filesystem — shards are rebuilt (occurrences) or viewed
// (counts) from it both at startup and when a survivor adopts a dead
// owner's shard, so no shard is ever lost with its rank.
type gffSource struct {
	k      int
	seqs   [][]byte    // ASCII contigs, nil under the packed kernels
	keys   []kmer.Kmer // global scan order: contig-ascending, position-ascending
	poss   []int32
	off    []int32 // keys[off[i]:off[i+1]] belong to contig i
	counts *jellyfish.CountTable
}

// buildGFFSource scans the packed contigs when pseqs is non-nil and
// the ASCII ones otherwise; the two k-mer streams are equal.
func buildGFFSource(seqs [][]byte, pseqs []seq.Packed, k int, counts *jellyfish.CountTable) *gffSource {
	src := &gffSource{k: k, seqs: seqs, counts: counts}
	if pseqs != nil {
		src.keys, src.poss, src.off = flattenKmersPacked(pseqs, k)
	} else {
		src.keys, src.poss, src.off = flattenKmers(seqs, k)
	}
	return src
}

// occs builds shard s (of ranks; 0 = the full, replicated table) of the
// contig occurrence index: each scanned k-mer's (contig, position), in
// scan order.
func (src *gffSource) occs(ranks, s int) *kmer.Multimap[occurrence] {
	return shardTable(ranks, s, len(src.keys), func(add func(kmer.Kmer, occurrence)) {
		ci := 0
		for j, m := range src.keys {
			for int32(j) >= src.off[ci+1] {
				ci++
			}
			add(m, occurrence{int32(ci), src.poss[j]})
		}
	})
}

// flattenKmers extracts every valid k-mer of every sequence into flat
// (key, position) arrays, parallelised over the sequences: a serial
// counting pass sizes a per-sequence range, then workers fill their
// sequences' ranges concurrently. off[i]:off[i+1] is sequence i's
// range.
func flattenKmers(seqs [][]byte, k int) (keys []kmer.Kmer, poss []int32, off []int32) {
	off = make([]int32, len(seqs)+1)
	for i, s := range seqs {
		off[i+1] = off[i] + int32(kmer.CountOf(s, k))
	}
	total := int(off[len(seqs)])
	keys = make([]kmer.Kmer, total)
	poss = make([]int32, total)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(seqs) {
		workers = len(seqs)
	}
	if workers <= 1 {
		fillKmerRange(seqs, keys, poss, off, 0, len(seqs), k)
		return keys, poss, off
	}
	var wg sync.WaitGroup
	per := (len(seqs) + workers - 1) / workers
	for lo := 0; lo < len(seqs); lo += per {
		hi := lo + per
		if hi > len(seqs) {
			hi = len(seqs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fillKmerRange(seqs, keys, poss, off, lo, hi, k)
		}(lo, hi)
	}
	wg.Wait()
	return keys, poss, off
}

func fillKmerRange(seqs [][]byte, keys []kmer.Kmer, poss []int32, off []int32, lo, hi, k int) {
	for i := lo; i < hi; i++ {
		j := off[i]
		it := kmer.NewIterator(seqs[i], k)
		for {
			m, pos, ok := it.Next()
			if !ok {
				break
			}
			keys[j] = m
			poss[j] = int32(pos)
			j++
		}
	}
}

// weldScratch holds the reusable buffers of the loop-1 and loop-2
// per-contig kernels, so their steady-state inner loops allocate
// nothing. One scratch serves one goroutine at a time; callers hold
// one per rank or draw from weldScratchPool per chunk. The slices only
// ever grow, so a warm scratch makes every later call allocation-free
// (aside from emitted weld strings, which are results, not scratch).
type weldScratch struct {
	kmers []kmer.Kmer // per-position seed encodings of the current contig
	valid []bool      // kmers[i] holds a valid (ambiguity-free) k-mer
	rcbuf []byte      // reverse-complement window buffer

	// Loop-1 dedup of emitted welds: a tiny open-addressing table from
	// window hash to weld index, verified against the stored weld bytes
	// on every hit, so it is exact despite hashing.
	dedupKeys []uint64
	dedupIdx  []int32
	dedupN    int

	// Loop-2 per-weld emission stamps: stamp[id] == epoch marks weld id
	// as already emitted for the current contig; bumping epoch resets
	// all stamps in O(1).
	stamp []uint32
	epoch uint32
	pairs [][2]int32 // reusable output backing for scanContigForWelds
}

var weldScratchPool = sync.Pool{New: func() any { return new(weldScratch) }}

// prepareContig precomputes the seed k-mer at every position of contig
// with one rolling pass — replacing the O(k) re-encode per rotated
// position that dominated harvestWelds — and resets the weld dedup
// table. n is the number of windows (len(contig)-k+1).
func (sc *weldScratch) prepareContig(contig []byte, k, n, dedupCap int) {
	if cap(sc.kmers) < n {
		sc.kmers = make([]kmer.Kmer, n)
		sc.valid = make([]bool, n)
	}
	sc.kmers = sc.kmers[:n]
	sc.valid = sc.valid[:n]
	for i := range sc.valid {
		sc.valid[i] = false
	}
	it := kmer.NewIterator(contig, k)
	for {
		m, pos, ok := it.Next()
		if !ok {
			break
		}
		sc.kmers[pos] = m
		sc.valid[pos] = true
	}
	slots := minDedupSlots
	for slots < 4*dedupCap {
		slots <<= 1
	}
	if len(sc.dedupKeys) != slots {
		sc.dedupKeys = make([]uint64, slots)
		sc.dedupIdx = make([]int32, slots)
	} else {
		for i := range sc.dedupKeys {
			sc.dedupKeys[i] = 0
		}
	}
	sc.dedupN = 0
}

const minDedupSlots = 16

// hashWindow is FNV-1a over the window bytes; collisions are resolved
// by byte comparison against the stored welds, so the hash only has to
// spread, not to identify.
func hashWindow(w []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range w {
		h ^= uint64(b)
		h *= 1099511628211
	}
	// A zero hash would collide with the empty-slot sentinel.
	return h | 1
}

// dedupSeen reports whether window w was already emitted for this
// contig (exact: hash hit is verified against the stored weld bytes).
func (sc *weldScratch) dedupSeen(w []byte, welds []string) bool {
	if sc.dedupN == 0 {
		return false
	}
	mask := uint64(len(sc.dedupKeys) - 1)
	h := hashWindow(w)
	for i := h & mask; ; i = (i + 1) & mask {
		k := sc.dedupKeys[i]
		if k == 0 {
			return false
		}
		if k == h && welds[sc.dedupIdx[i]] == string(w) {
			return true
		}
	}
}

// dedupAdd records window w as emitted at index idx within welds.
func (sc *weldScratch) dedupAdd(w []byte, idx int32) {
	mask := uint64(len(sc.dedupKeys) - 1)
	h := hashWindow(w)
	i := h & mask
	for sc.dedupKeys[i] != 0 {
		i = (i + 1) & mask
	}
	sc.dedupKeys[i] = h
	sc.dedupIdx[i] = idx
	sc.dedupN++
}

// reverseComplementInto writes RC(w) into the scratch RC buffer and
// returns it, reusing the buffer's capacity across calls.
func (sc *weldScratch) reverseComplementInto(w []byte) []byte {
	sc.rcbuf = append(sc.rcbuf[:0], w...)
	seq.ReverseComplementInPlace(sc.rcbuf)
	return sc.rcbuf
}

// weldSupport decides whether a candidate window is read-supported:
// every k-mer of the window (either strand) must appear in the read
// k-mer table with at least minSupport occurrences, so that a junction
// between two contigs is only welded "if read support exists". The
// probes hit a flat table lock-free — this is the single hottest call
// site in GraphFromFasta.
func weldSupport(window []byte, k int, reads readCounts, minSupport int) (bool, int64) {
	var probes int64
	it := kmer.NewIterator(window, k)
	for {
		m, _, ok := it.Next()
		if !ok {
			return true, probes
		}
		probes++
		if int(reads.Get(m)) < minSupport {
			probes++
			if int(reads.Get(m.ReverseComplement(k))) < minSupport {
				return false, probes
			}
		}
	}
}

// harvestWelds runs loop 1's per-contig body: it scans contig ci for
// 2k windows that match a sub-region of a different contig on either
// strand and are read-supported, up to the per-contig cap. The scan
// start is rotated by rot (derived from the run seed) so that which
// welds land under the cap varies between runs, reproducing Trinity's
// slightly indeterministic output (§IV) in a controlled way. It
// returns the welds and the work units (index probes, window
// comparisons, support probes) performed. sc supplies the reusable
// buffers; the steady-state inner loop performs no allocations.
func harvestWelds(contig []byte, ci int, contigs [][]byte, ix *kmer.Multimap[occurrence], reads readCounts,
	opt GFFOptions, rot int, sc *weldScratch) ([]string, float64) {
	k := opt.K
	flank := k / 2
	window := 2 * k
	var units float64
	n := len(contig) - k + 1
	if n <= 0 {
		return nil, 1
	}
	sc.prepareContig(contig, k, n, opt.MaxWeldsPerContig)
	var welds []string
	for step := 0; step < n; step++ {
		p := (step + rot) % n
		units++
		if !sc.valid[p] {
			continue
		}
		m := sc.kmers[p]
		lo := p - flank
		hi := lo + window // length 2k even when k is odd
		if lo < 0 || hi > len(contig) {
			continue // window must fit inside the contig
		}
		w := contig[lo:hi]
		if sc.dedupSeen(w, welds) {
			continue
		}
		// The welding subsequence must "match sub-regions of other
		// contigs": same strand first, then the reverse complement.
		matched := false
		for _, o := range ix.Row(m) {
			if int(o.contig) == ci {
				continue
			}
			other := contigs[o.contig]
			olo := int(o.pos) - flank
			units += float64(window)
			if olo >= 0 && olo+window <= len(other) && string(other[olo:olo+window]) == string(w) {
				matched = true
				break
			}
		}
		if !matched {
			rcSeed := m.ReverseComplement(k)
			units++
			rcWin := sc.reverseComplementInto(w)
			// Within RC(w), the RC seed starts at offset k-flank.
			for _, o := range ix.Row(rcSeed) {
				if int(o.contig) == ci {
					continue
				}
				other := contigs[o.contig]
				olo := int(o.pos) - (k - flank)
				units += float64(window)
				if olo >= 0 && olo+window <= len(other) && string(other[olo:olo+window]) == string(rcWin) {
					matched = true
					break
				}
			}
		}
		if !matched {
			continue
		}
		supported, probes := weldSupport(w, k, reads, opt.MinWeldSupport)
		units += float64(probes)
		if !supported {
			continue
		}
		sc.dedupAdd(w, int32(len(welds)))
		welds = append(welds, string(w))
		if len(welds) >= opt.MaxWeldsPerContig {
			break
		}
	}
	return welds, units
}

// packWelds serialises a rank's weld set for the Allgatherv exchange:
// "the vector of the subsequences are packed into a single sequence
// for MPI communication" (§III-B). The framing is length-prefixed
// (uvarint length, then the weld bytes), so packing is a single
// pre-sized append pass with no join/split full copies and no reserved
// delimiter byte.
func packWelds(welds []string) []byte {
	n := 0
	for _, w := range welds {
		n += len(w) + uvarintLen(uint64(len(w)))
	}
	buf := make([]byte, 0, n)
	var tmp [binary.MaxVarintLen64]byte
	for _, w := range welds {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(w)))]...)
		buf = append(buf, w...)
	}
	return buf
}

// unpackWelds reverses packWelds. A malformed tail (truncated frame)
// ends the parse; frames decoded before it are returned.
func unpackWelds(buf []byte) []string {
	var out []string
	for len(buf) > 0 {
		l, n := binary.Uvarint(buf)
		if n <= 0 || l > uint64(len(buf)-n) {
			return out
		}
		out = append(out, string(buf[n:n+int(l)]))
		buf = buf[n+int(l):]
	}
	return out
}

// uvarintLen returns the encoded size of v without encoding it.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// poolWelds merges per-rank weld sets into a deduplicated, sorted
// global weld list so every rank derives an identical index regardless
// of the rank count. Welds that are reverse complements of an already
// pooled weld collapse onto one canonical orientation; the RC
// candidate is built in one reusable buffer and only materialised as a
// string when it actually wins the comparison.
func poolWelds(parts [][]byte) []string {
	out := []string{} // non-nil when empty, as decodeWelds' is on the packed path
	var rcbuf []byte
	for _, p := range parts {
		for _, w := range unpackWelds(p) {
			if w == "" {
				continue
			}
			rcbuf = append(rcbuf[:0], w...)
			seq.ReverseComplementInPlace(rcbuf)
			if string(rcbuf) < w {
				w = string(rcbuf)
			}
			out = append(out, w)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// weldRef points at a pooled weld in one orientation.
type weldRef struct {
	id int32
	rc bool
}

// weldIndex locates welds in contigs during loop 2: refs keys every
// weld under both orientations of its central core k-mer, in weld-id
// order, so a contig scan does one lock-free probe per position and
// verifies the full window only on a hit. W is the weld payload — ASCII
// strings or packed sequences — with rcWelds[id] the reverse complement
// of welds[id].
type weldIndex[W any] struct {
	k       int
	refs    *kmer.Multimap[weldRef]
	welds   []W
	rcWelds []W
}

// newWeldIndex indexes welds (rc reverse-complements one, core reads
// its core k-mer).
func newWeldIndex[W any](welds []W, k int, rc func(W) W, core func(W) (kmer.Kmer, bool)) *weldIndex[W] {
	ix := &weldIndex[W]{k: k, welds: welds, rcWelds: make([]W, len(welds))}
	for id, w := range welds {
		ix.rcWelds[id] = rc(w)
	}
	ix.refs = shardTable(0, 0, 2*len(welds), weldCoreRefs(welds, k, core))
	return ix
}

func buildWeldIndex(welds []string, k int) *weldIndex[string] {
	return newWeldIndex(welds, k, func(w string) string {
		b := []byte(w)
		seq.ReverseComplementInPlace(b)
		return string(b)
	}, asciiCore(k))
}

// memBytes is the lookup structures plus the RC materialisations; the
// pooled welds themselves are stage output, identical under every path.
func (ix *weldIndex[W]) memBytes(size func(W) int) int64 {
	n := ix.refs.MemBytes()
	for _, w := range ix.rcWelds {
		n += int64(size(w))
	}
	return n
}

// weldCoreRefs emits, in weld-id order, each weld's core k-mer as a
// forward reference and — unless the core is its own reverse
// complement — the reverse-complemented core as an RC reference: the
// keys loop 2 probes to find a weld on either strand. Welds too short
// for a core, or with an ambiguous one, emit nothing.
func weldCoreRefs[W any](welds []W, k int, core func(W) (kmer.Kmer, bool)) func(add func(kmer.Kmer, weldRef)) {
	return func(add func(kmer.Kmer, weldRef)) {
		for id, w := range welds {
			m, ok := core(w)
			if !ok {
				continue
			}
			add(m, weldRef{int32(id), false})
			if rc := m.ReverseComplement(k); rc != m {
				add(rc, weldRef{int32(id), true})
			}
		}
	}
}

// asciiCore reads an ASCII weld's core: the k bases after its flank.
func asciiCore(k int) func(string) (kmer.Kmer, bool) {
	flank := k / 2
	return func(w string) (kmer.Kmer, bool) {
		if len(w) < flank+k {
			return 0, false
		}
		return kmer.Encode([]byte(w[flank:flank+k]), k)
	}
}

// shardTable builds the table of the (k-mer, value) pairs emit yields,
// rows in emission order, keeping the pairs whose k-mer kmer.OwnerRank
// assigns to shard s of ranks. ranks 0 keeps every pair, in a table
// sized for hint keys; a shard is sized for the pairs it keeps, counted
// by a first run of emit. Replicated tables and shard stores are thus
// one build, and a shard's rows equal the full table's.
func shardTable[V any](ranks, s, hint int, emit func(add func(kmer.Kmer, V))) *kmer.Multimap[V] {
	if ranks > 0 {
		hint = 0
		emit(func(m kmer.Kmer, _ V) {
			if kmer.OwnerRank(m, ranks) == s {
				hint++
			}
		})
	}
	t := kmer.NewMultimap[V](hint, hint)
	emit(func(m kmer.Kmer, v V) {
		if kmer.OwnerRank(m, ranks) == s {
			t.Add(m, v)
		}
	})
	t.Freeze()
	return t
}

// scanContigForWelds runs loop 2's per-contig body: it reports every
// (weld id, contig id) incidence on either strand, plus the work units
// spent. The returned slice is backed by sc and only valid until the
// next call with the same scratch; the steady-state inner loop
// performs no allocations.
func scanContigForWelds(contig []byte, ci int, ix *weldIndex[string], sc *weldScratch) ([][2]int32, float64) {
	k := ix.k
	flank := k / 2
	window := 2 * k
	out := sc.pairs[:0]
	var units float64
	if len(sc.stamp) < len(ix.welds) {
		sc.stamp = make([]uint32, len(ix.welds))
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear stale stamps once, then restart
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	it := kmer.NewIterator(contig, k)
	for {
		m, pos, ok := it.Next()
		if !ok {
			break
		}
		units++
		refs := ix.refs.Row(m)
		if len(refs) == 0 {
			continue
		}
		for _, ref := range refs {
			if sc.stamp[ref.id] == sc.epoch {
				continue
			}
			var lo int
			var want string
			if !ref.rc {
				// The weld occurs forward: its core sits at offset flank.
				lo = pos - flank
				want = ix.welds[ref.id]
			} else {
				// The contig contains the weld's reverse complement: the
				// RC core sits at offset k-flank within RC(weld).
				lo = pos - (k - flank)
				want = ix.rcWelds[ref.id]
			}
			if lo < 0 || lo+window > len(contig) {
				continue
			}
			units += float64(window)
			if string(contig[lo:lo+window]) == want {
				sc.stamp[ref.id] = sc.epoch
				out = append(out, [2]int32{ref.id, int32(ci)})
			}
		}
	}
	sc.pairs = out
	return out, units
}
