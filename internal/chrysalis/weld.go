package chrysalis

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"runtime"
	"slices"
	"strings"
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
// A weld is a value, not a sequence object: its 2k bases are two
// adjacent k-mers (type weld, 16 bytes). The harvest reads them from
// the per-position k-mers it already holds, the pool sorts them, the
// index derives the core k-mer and the reverse complement from them,
// and loop 2 compares them with a contig's per-position k-mers. Only
// the wire and the output see bases: the exchange carries
// length-prefixed frames of ASCII bases, or of seq.Packed.Encode bytes
// on the packed path, and GFFResult.Welds is cut from one decoded
// string. A window holding a non-ACGT base is not a weld candidate;
// Inchworm never emits one.
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

// flattenKmersPacked is flattenKmers over packed sequences: a serial
// counting pass via the N-run sidecar sizes per-sequence ranges, then
// the fill pass walks the packed iterators. Layout is deterministic
// and equal to the ASCII pass.
//
// The packed kernels' byte-identity contract rests on this: the packed
// iterators emit the ASCII iterators' k-mer streams and
// Packed.EqualRange is a byte comparison, so dense ids, table row
// orders, harvested welds and unit meters match the ASCII kernels bit
// for bit, and both probe the same occurrence index and weld index.
func flattenKmersPacked(seqs []seq.Packed, k int) (keys []kmer.Kmer, poss []int32, off []int32) {
	off = make([]int32, len(seqs)+1)
	for i := range seqs {
		off[i+1] = off[i] + int32(kmer.PackedCountOf(seqs[i], k))
	}
	total := int(off[len(seqs)])
	keys = make([]kmer.Kmer, total)
	poss = make([]int32, total)
	for i := range seqs {
		j := off[i]
		it := kmer.NewPackedIterator(seqs[i], k)
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
	return keys, poss, off
}

// weld is a welding subsequence as a value: bases [0, k) are left and
// bases [k, 2k) are right. Ordering by (left, right) is the byte order
// of the ASCII windows, because k-mers hold A<C<G<T as the codes
// 0<1<2<3, most significant base first.
type weld struct{ left, right kmer.Kmer }

func (w weld) compare(v weld) int {
	if c := cmp.Compare(w.left, v.left); c != 0 {
		return c
	}
	return cmp.Compare(w.right, v.right)
}

// reverseComplement is the weld read from the other strand.
func (w weld) reverseComplement(k int) weld {
	return weld{w.right.ReverseComplement(k), w.left.ReverseComplement(k)}
}

// core is the seed k-mer the weld is centred on: bases [k/2, k/2+k),
// the tail of left followed by the head of right.
func (w weld) core(k int) kmer.Kmer {
	tail := uint(2 * (k - k/2))
	return kmer.Kmer((uint64(w.left)&(1<<tail-1))<<(2*uint(k/2)) | uint64(w.right)>>tail)
}

// hash spreads welds over the per-contig dedup table, whose hits are
// verified by value. It is never 0, the empty-slot sentinel.
func (w weld) hash() uint64 {
	h := (uint64(w.left)*0x9e3779b97f4a7c15 ^ uint64(w.right)) * 0xbf58476d1ce4e5b9
	return h ^ h>>31 | 1
}

// appendASCII appends the weld's 2k bases.
func (w weld) appendASCII(dst []byte, k int) []byte {
	return w.right.AppendDecode(w.left.AppendDecode(dst, k), k) // ascii-ok: ASCII wire frames and the GFFResult.Welds output boundary
}

// words returns the weld's bases laid out as seq.Packed stores them,
// base i at bit 2*(i%32) of word i/32: the 4k bits, most significant
// base first, fill the top of a 128-bit (top, bot) pair, and each half
// is then reversed base by base.
func (w weld) words(k int) (lo, hi uint64) {
	top := uint64(w.left) << (64 - 2*k)
	var bot uint64
	if s := 128 - 4*k; s >= 64 {
		top |= uint64(w.right) << (s - 64)
	} else {
		top |= uint64(w.right) >> (64 - s)
		bot = uint64(w.right) << s
	}
	return reverseBases(top), reverseBases(bot)
}

// weldFromWords is words' inverse.
func weldFromWords(lo, hi uint64, k int) weld {
	top, bot := reverseBases(lo), reverseBases(hi)
	return weld{kmer.Kmer(top >> (64 - 2*k)), kmer.Kmer((top<<(2*k) | bot>>(64-2*k)) >> (64 - 2*k))}
}

// reverseBases reverses the order of the 32 two-bit bases of v.
func reverseBases(v uint64) uint64 {
	v = bits.ReverseBytes64(v)
	v = v>>4&0x0f0f0f0f0f0f0f0f | v&0x0f0f0f0f0f0f0f0f<<4
	return v>>2&0x3333333333333333 | v&0x3333333333333333<<2
}

// weldPayloadLen is the byte length of one weld on the wire: its 2k
// ASCII bases, or — packed — the seq.Packed.Encode form of a 2k-base
// sequence without N runs: base count, zero run count, then the words.
// Both are below 128, so a frame's uvarint length is one byte.
func weldPayloadLen(k int, packed bool) int {
	if packed {
		return 2 + 8*((2*k+31)/32)
	}
	return 2 * k
}

// appendWeldFrames appends welds to dst as the exchange's frames, each
// a uvarint length and a payload (weldPayloadLen): "the vector of the
// subsequences are packed into a single sequence for MPI
// communication" (§III-B). Comm1 and the cost model meter these
// bytes, so their layout is fixed.
func appendWeldFrames(dst []byte, welds []weld, k int, packed bool) []byte {
	n := weldPayloadLen(k, packed)
	dst = slices.Grow(dst, len(welds)*(1+n))
	for _, w := range welds {
		dst = append(dst, byte(n))
		if !packed {
			dst = w.appendASCII(dst, k)
			continue
		}
		lo, hi := w.words(k)
		dst = binary.LittleEndian.AppendUint64(append(dst, byte(2*k), 0), lo)
		if 2*k > 32 {
			dst = binary.LittleEndian.AppendUint64(dst, hi)
		}
	}
	return dst
}

// appendWelds appends the welds framed in buf, appendWeldFrames'
// inverse. A truncated frame ends the parse, keeping the frames before
// it; a frame that is not a 2k-base ACGT window is skipped.
func appendWelds(dst []weld, buf []byte, k int, packed bool) []weld {
	for len(buf) > 0 {
		l, n := binary.Uvarint(buf)
		if n <= 0 || l > uint64(len(buf)-n) {
			return dst
		}
		if w, ok := parseWeld(buf[n:n+int(l)], k, packed); ok {
			dst = append(dst, w)
		}
		buf = buf[n+int(l):]
	}
	return dst
}

func parseWeld(b []byte, k int, packed bool) (weld, bool) {
	if !packed {
		if len(b) != 2*k {
			return weld{}, false
		}
		left, okL := kmer.Encode(b, k)
		right, okR := kmer.Encode(b[k:], k)
		return weld{left, right}, okL && okR
	}
	if len(b) != weldPayloadLen(k, true) || b[0] != byte(2*k) || b[1] != 0 {
		return weld{}, false
	}
	var hi uint64
	if len(b) > 10 {
		hi = binary.LittleEndian.Uint64(b[10:])
	}
	return weldFromWords(binary.LittleEndian.Uint64(b[2:]), hi, k), true
}

// poolWelds merges the ranks' weld frames into the global weld list,
// decoded straight into one []weld, so every rank derives an identical
// index regardless of the rank count.
func poolWelds(parts [][]byte, k int, packed bool) []weld {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	welds := make([]weld, 0, n/(1+weldPayloadLen(k, packed)))
	for _, p := range parts {
		welds = appendWelds(welds, p, k, packed)
	}
	return canonicalWelds(welds, k)
}

// canonicalWelds turns each weld, in place, to whichever orientation
// sorts first, then sorts and compacts: sort.Strings over the ASCII
// windows, with reverse-complement pairs collapsed onto one weld.
func canonicalWelds(welds []weld, k int) []weld {
	for i, w := range welds {
		if rc := w.reverseComplement(k); rc.compare(w) < 0 {
			welds[i] = rc
		}
	}
	slices.SortFunc(welds, weld.compare)
	return slices.Compact(welds)
}

// weldStrings is the output form of the pooled welds: one string
// holding every window, cut into substrings.
func weldStrings(welds []weld, k int) []string {
	var sb strings.Builder
	sb.Grow(2 * k * len(welds))
	var buf [2 * kmer.MaxK]byte
	for _, w := range welds {
		sb.Write(w.appendASCII(buf[:0], k))
	}
	all := sb.String()
	out := make([]string, len(welds))
	for i := range out {
		out[i] = all[2*k*i : 2*k*(i+1)]
	}
	return out
}

// weldScratch holds the reusable buffers of the loop-1 and loop-2
// per-contig kernels, so their steady-state inner loops allocate
// nothing. One scratch serves one goroutine at a time; callers hold
// one per rank or draw from weldScratchPool per chunk. The slices only
// ever grow, so a warm scratch makes every later call allocation-free;
// harvested welds are appended to the caller's slice.
type weldScratch struct {
	kmers []kmer.Kmer // the k-mer at every position of the current contig, or noKmer

	// The current window's reverse complement, for loop 1's
	// other-strand comparisons: ASCII bytes, or a packed window and its
	// reverse complement; rcAt is the window it was built for.
	rcbuf   []byte
	win, rc seq.Packed
	rcAt    int

	// Loop-1 dedup of emitted welds: a tiny open-addressing table from
	// weld hash to the weld's index among the contig's welds, verified
	// by value on every hit, so it is exact despite hashing.
	dedupKeys []uint64
	dedupIdx  []int32
	dedupN    int

	// Loop-2 per-weld emission stamps: stamp[id] == epoch marks weld id
	// as already emitted for the current contig; bumping epoch resets
	// all stamps in O(1).
	stamp []uint32
	epoch uint32
	pairs [][2]int32 // reusable output backing for scanKmers
}

// noKmer marks a position whose k-mer holds an ambiguous base; no
// valid k-mer (below 4^31) has its value.
const noKmer = ^kmer.Kmer(0)

var weldScratchPool = sync.Pool{New: func() any { return new(weldScratch) }}

// prepareContig precomputes the k-mer at every position of an ASCII
// contig with one rolling pass and returns the number of positions.
func (sc *weldScratch) prepareContig(contig []byte, k int) int {
	sc.kmers = sc.kmers[:0]
	it := kmer.NewIterator(contig, k)
	for {
		m, pos, ok := it.Next()
		if !ok {
			return sc.endKmers(len(contig), k)
		}
		sc.putKmer(m, pos)
	}
}

// prepareContigPacked is prepareContig over a packed contig.
func (sc *weldScratch) prepareContigPacked(contig seq.Packed, k int) int {
	sc.kmers = sc.kmers[:0]
	it := kmer.NewPackedIterator(contig, k)
	for {
		m, pos, ok := it.Next()
		if !ok {
			return sc.endKmers(contig.Len(), k)
		}
		sc.putKmer(m, pos)
	}
}

// putKmer records the k-mer at pos, after noKmer for the positions the
// iterator skipped since the last one.
func (sc *weldScratch) putKmer(m kmer.Kmer, pos int) {
	for len(sc.kmers) < pos {
		sc.kmers = append(sc.kmers, noKmer)
	}
	sc.kmers = append(sc.kmers, m)
}

// endKmers pads the k-mer array to the contig's positions and returns
// their number.
func (sc *weldScratch) endKmers(length, k int) int {
	n := max(0, length-k+1)
	for len(sc.kmers) < n {
		sc.kmers = append(sc.kmers, noKmer)
	}
	sc.rcAt = -1
	return n
}

// resetDedup empties the weld dedup table, sized for dedupCap welds.
func (sc *weldScratch) resetDedup(dedupCap int) {
	slots := minDedupSlots
	for slots < 4*dedupCap {
		slots <<= 1
	}
	if len(sc.dedupKeys) != slots {
		sc.dedupKeys = make([]uint64, slots)
		sc.dedupIdx = make([]int32, slots)
	} else {
		clear(sc.dedupKeys)
	}
	sc.dedupN = 0
}

const minDedupSlots = 16

// dedupSeen reports whether w is among the contig's welds already
// emitted.
func (sc *weldScratch) dedupSeen(w weld, welds []weld) bool {
	if sc.dedupN == 0 {
		return false
	}
	mask := uint64(len(sc.dedupKeys) - 1)
	h := w.hash()
	for i := h & mask; ; i = (i + 1) & mask {
		k := sc.dedupKeys[i]
		if k == 0 {
			return false
		}
		if k == h && welds[sc.dedupIdx[i]] == w {
			return true
		}
	}
}

// dedupAdd records w as emitted at index idx among the contig's welds.
func (sc *weldScratch) dedupAdd(w weld, idx int32) {
	mask := uint64(len(sc.dedupKeys) - 1)
	h := w.hash()
	i := h & mask
	for sc.dedupKeys[i] != 0 {
		i = (i + 1) & mask
	}
	sc.dedupKeys[i] = h
	sc.dedupIdx[i] = idx
	sc.dedupN++
}

// candidate returns the window of 2k bases starting at lo as a weld.
// It must fit the contig and hold no ambiguous base, which is when the
// k-mers at lo and lo+k are both valid.
func (sc *weldScratch) candidate(lo, k int) (weld, bool) {
	if lo < 0 || lo+k >= len(sc.kmers) || sc.kmers[lo] == noKmer || sc.kmers[lo+k] == noKmer {
		return weld{}, false
	}
	return weld{sc.kmers[lo], sc.kmers[lo+k]}, true
}

// weldSupport decides whether a candidate window is read-supported:
// each of its k+1 k-mers (kmers) must appear, on either strand, in the
// read k-mer table with at least minSupport occurrences, so that a
// junction between two contigs is only welded "if read support exists".
// The probes hit a flat table lock-free — this is the single hottest
// call site in GraphFromFasta.
func weldSupport(kmers []kmer.Kmer, k int, reads readCounts, minSupport int) (bool, int64) {
	var probes int64
	for _, m := range kmers {
		probes++
		if int(reads.Get(m)) < minSupport {
			probes++
			if int(reads.Get(m.ReverseComplement(k))) < minSupport {
				return false, probes
			}
		}
	}
	return true, probes
}

// harvestWelds runs loop 1's per-contig body over an ASCII contig: it
// scans contig ci for 2k windows that match a sub-region of a
// different contig on either strand and are read-supported, up to the
// per-contig cap. The scan start is rotated by rot (derived from the
// run seed) so that which welds land under the cap varies between
// runs, reproducing Trinity's slightly indeterministic output (§IV) in
// a controlled way. It appends the welds to dst and returns it with
// the work units (index probes, window comparisons, support probes)
// performed. sc supplies the reusable buffers; with dst's capacity
// warm, the call allocates nothing.
func harvestWelds(dst []weld, contig []byte, ci int, contigs [][]byte, ix *kmer.Multimap[occurrence], reads readCounts,
	opt GFFOptions, rot int, sc *weldScratch) ([]weld, float64) {
	n, window := sc.prepareContig(contig, opt.K), 2*opt.K
	return harvest(dst, ci, n, ix, reads, opt, rot, sc, func(o int32, olo, lo int, rc bool) bool {
		other := contigs[o]
		if olo < 0 || olo+window > len(other) {
			return false
		}
		want := contig[lo : lo+window]
		if rc {
			if sc.rcAt != lo {
				sc.rcbuf, sc.rcAt = append(sc.rcbuf[:0], want...), lo
				seq.ReverseComplementInPlace(sc.rcbuf)
			}
			want = sc.rcbuf
		}
		return string(other[olo:olo+window]) == string(want)
	})
}

// harvestWeldsPacked is harvestWelds over packed contigs: the windows
// compare word-wise.
func harvestWeldsPacked(dst []weld, contig seq.Packed, ci int, contigs []seq.Packed, ix *kmer.Multimap[occurrence],
	reads readCounts, opt GFFOptions, rot int, sc *weldScratch) ([]weld, float64) {
	n, window := sc.prepareContigPacked(contig, opt.K), 2*opt.K
	return harvest(dst, ci, n, ix, reads, opt, rot, sc, func(o int32, olo, lo int, rc bool) bool {
		other := contigs[o]
		if olo < 0 || olo+window > other.Len() {
			return false
		}
		if !rc {
			return other.EqualRange(olo, contig, lo, window)
		}
		if sc.rcAt != lo {
			contig.SliceInto(&sc.win, lo, lo+window)
			sc.win.ReverseComplementInto(&sc.rc)
			sc.rcAt = lo
		}
		return other.EqualRange(olo, sc.rc, 0, window)
	})
}

// harvest is the body both harvest kernels share, over the n
// positions whose k-mers sc holds. same reports whether contig o holds,
// at olo, the window that starts at lo — read from the other strand
// when rc.
func harvest(dst []weld, ci, n int, ix *kmer.Multimap[occurrence], reads readCounts, opt GFFOptions, rot int,
	sc *weldScratch, same func(o int32, olo, lo int, rc bool) bool) ([]weld, float64) {
	if n <= 0 {
		return dst, 1
	}
	k := opt.K
	flank := k / 2
	window := float64(2 * k)
	sc.resetDedup(opt.MaxWeldsPerContig)
	first := len(dst)
	var units float64
	for step := 0; step < n; step++ {
		p := (step + rot) % n
		units++
		lo := p - flank
		w, ok := sc.candidate(lo, k)
		if !ok || sc.dedupSeen(w, dst[first:]) {
			continue
		}
		// The welding subsequence must "match sub-regions of other
		// contigs": same strand first, then the reverse complement,
		// whose seed starts at offset k-flank within RC(w).
		matched := false
		for _, o := range ix.Row(sc.kmers[p]) {
			if int(o.contig) != ci {
				units += window
				if matched = same(o.contig, int(o.pos)-flank, lo, false); matched {
					break
				}
			}
		}
		if !matched {
			units++
			for _, o := range ix.Row(sc.kmers[p].ReverseComplement(k)) {
				if int(o.contig) != ci {
					units += window
					if matched = same(o.contig, int(o.pos)-(k-flank), lo, true); matched {
						break
					}
				}
			}
		}
		if !matched {
			continue
		}
		supported, probes := weldSupport(sc.kmers[lo:lo+k+1], k, reads, opt.MinWeldSupport)
		units += float64(probes)
		if !supported {
			continue
		}
		sc.dedupAdd(w, int32(len(dst)-first))
		dst = append(dst, w)
		if len(dst)-first >= opt.MaxWeldsPerContig {
			break
		}
	}
	return dst, units
}

// weldRef points at a pooled weld in one orientation.
type weldRef struct {
	id int32
	rc bool
}

// weldIndex locates welds in contigs during loop 2: refs keys every
// weld under both orientations of its core k-mer, in weld-id order, so
// a contig scan does one lock-free probe per position and compares the
// weld's two k-mers only on a hit.
type weldIndex struct {
	k     int
	refs  *kmer.Multimap[weldRef]
	welds []weld
}

func buildWeldIndex(welds []weld, k int) *weldIndex {
	return &weldIndex{k: k, welds: welds, refs: shardTable(0, 0, 2*len(welds), weldCoreRefs(welds, k))}
}

// memBytes is the lookup structure; the pooled welds themselves are
// stage output, identical under every path.
func (ix *weldIndex) memBytes() int64 { return ix.refs.MemBytes() }

// weldCoreRefs emits, in weld-id order, each weld's core k-mer as a
// forward reference and — unless the core is its own reverse
// complement — the reverse-complemented core as an RC reference: the
// keys loop 2 probes to find a weld on either strand.
func weldCoreRefs(welds []weld, k int) func(add func(kmer.Kmer, weldRef)) {
	return func(add func(kmer.Kmer, weldRef)) {
		for id, w := range welds {
			m := w.core(k)
			add(m, weldRef{int32(id), false})
			if rc := m.ReverseComplement(k); rc != m {
				add(rc, weldRef{int32(id), true})
			}
		}
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

// scanContigForWelds runs loop 2's per-contig body over an ASCII
// contig: it reports every (weld id, contig id) incidence on either
// strand, plus the work units spent. The returned slice is backed by
// sc and only valid until the next call with the same scratch; the
// steady-state call performs no allocations.
func scanContigForWelds(contig []byte, ci int, ix *weldIndex, sc *weldScratch) ([][2]int32, float64) {
	sc.prepareContig(contig, ix.k)
	return sc.scanKmers(ci, ix)
}

// scanContigForWeldsPacked is scanContigForWelds over a packed contig.
func scanContigForWeldsPacked(contig seq.Packed, ci int, ix *weldIndex, sc *weldScratch) ([][2]int32, float64) {
	sc.prepareContigPacked(contig, ix.k)
	return sc.scanKmers(ci, ix)
}

// scanKmers is the body both loop-2 kernels share, over the contig's
// k-mers sc holds: every valid k-mer is one index probe, and each hit
// compares its weld's two k-mers (or its reverse complement's) with the
// contig's at the weld's window, the first match of a weld counting. A
// weld occurs forward with its core at offset flank, or the contig
// holds its reverse complement, whose core sits at offset k-flank.
func (sc *weldScratch) scanKmers(ci int, ix *weldIndex) ([][2]int32, float64) {
	k := ix.k
	out := sc.pairs[:0]
	if len(sc.stamp) < len(ix.welds) {
		sc.stamp = make([]uint32, len(ix.welds))
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear stale stamps once, then restart
		clear(sc.stamp)
		sc.epoch = 1
	}
	var units float64
	for pos, m := range sc.kmers {
		if m == noKmer {
			continue
		}
		units++
		for _, ref := range ix.refs.Row(m) {
			if sc.stamp[ref.id] == sc.epoch {
				continue
			}
			lo := pos - k/2
			if ref.rc {
				lo = pos - (k - k/2)
			}
			if lo < 0 || lo+k >= len(sc.kmers) {
				continue // the window overruns the contig
			}
			units += float64(2 * k)
			w := ix.welds[ref.id]
			if ref.rc {
				w = w.reverseComplement(k)
			}
			if got, ok := sc.candidate(lo, k); ok && got == w {
				sc.stamp[ref.id] = sc.epoch
				out = append(out, [2]int32{ref.id, int32(ci)})
			}
		}
	}
	sc.pairs = out
	return out, units
}
