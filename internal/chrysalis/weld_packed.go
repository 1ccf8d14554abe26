package chrysalis

import (
	"slices"
	"sync"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// Packed welding kernels: twins of the ASCII kernels in weld.go that
// operate on 2-bit packed contigs (seq.Packed) end-to-end. Window
// comparisons become word compares, reverse complements become the
// O(log w) word twiddle, and k-mer extraction reads stored codes
// directly — no ASCII materialisation anywhere in the loops.
//
// Byte-identity contract: every kernel mirrors its ASCII twin's
// control flow and work-unit formulas exactly (units per position,
// float64(window) per candidate comparison, one unit per support
// probe), the packed iterators emit the identical k-mer streams, and
// Packed.Compare reproduces bytes.Compare — so dense ids, table row
// orders, dedup decisions, harvested weld sets, pooled order, and
// metered profiles all match the ASCII path bit for bit. The lookup
// tables themselves are shared: both kernel sets probe the same
// occurrence index and the same weldIndex refs.
//
// Welds travel between ranks as wire frames: each harvested window is
// seq.Packed.Encode()d and the bytes ride as an opaque string through
// the existing packWelds framing, chunk checkpoint stores, and
// Allgatherv exchange.

// flattenKmersPacked is flattenKmers over packed sequences: a serial
// counting pass via the N-run sidecar sizes per-sequence ranges, then
// the fill pass walks the packed iterators. Layout is deterministic
// and equal to the ASCII pass.
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

// packedWeldScratch extends weldScratch with the packed-window
// buffers; the dedup table, k-mer precompute, and stamp arrays are
// shared with the ASCII kernels via the embedded scratch.
type packedWeldScratch struct {
	weldScratch
	win seq.Packed // current candidate window
	rc  seq.Packed // its reverse complement
}

var packedWeldScratchPool = sync.Pool{New: func() any { return new(packedWeldScratch) }}

// prepareContigPacked mirrors weldScratch.prepareContig: one rolling
// packed pass fills the per-position seed array, then the dedup table
// resets.
func (sc *packedWeldScratch) prepareContigPacked(contig seq.Packed, k, n, dedupCap int) {
	if cap(sc.kmers) < n {
		sc.kmers = make([]kmer.Kmer, n)
		sc.valid = make([]bool, n)
	}
	sc.kmers = sc.kmers[:n]
	sc.valid = sc.valid[:n]
	for i := range sc.valid {
		sc.valid[i] = false
	}
	it := kmer.NewPackedIterator(contig, k)
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

// hashPacked is FNV-1a over the packed words, length, and N runs —
// collisions are resolved exactly, so it only has to spread.
func hashPacked(p seq.Packed) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= v >> s & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(p.Len()))
	for i := 0; i < p.NumWords(); i++ {
		mix(p.Word(i))
	}
	for i := 0; i < p.NumRuns(); i++ {
		r := p.RunAt(i)
		mix(uint64(uint32(r.Start))<<32 | uint64(uint32(r.Len)))
	}
	return h | 1
}

// dedupSeenPacked reports whether window w was already emitted for
// this contig (hash hit verified against the stored packed weld).
func (sc *packedWeldScratch) dedupSeenPacked(w seq.Packed, welds []seq.Packed) bool {
	if sc.dedupN == 0 {
		return false
	}
	mask := uint64(len(sc.dedupKeys) - 1)
	h := hashPacked(w)
	for i := h & mask; ; i = (i + 1) & mask {
		k := sc.dedupKeys[i]
		if k == 0 {
			return false
		}
		if k == h && welds[sc.dedupIdx[i]].Equal(w) {
			return true
		}
	}
}

// dedupAddPacked records window w as emitted at index idx.
func (sc *packedWeldScratch) dedupAddPacked(w seq.Packed, idx int32) {
	mask := uint64(len(sc.dedupKeys) - 1)
	h := hashPacked(w)
	i := h & mask
	for sc.dedupKeys[i] != 0 {
		i = (i + 1) & mask
	}
	sc.dedupKeys[i] = h
	sc.dedupIdx[i] = idx
	sc.dedupN++
}

// weldSupportPacked is weldSupport over a packed window expressed as a
// contig range: identical probe sequence and probe count.
func weldSupportPacked(contig seq.Packed, lo, hi, k int, reads jellyfish.View, minSupport int) (bool, int64) {
	var probes int64
	it := kmer.NewPackedRangeIterator(contig, k, lo, hi)
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

// harvestWeldsPacked is loop 1's per-contig body over packed contigs —
// the same rotated scan, dedup, two-strand sub-region matching, read
// support gate, and per-contig cap as harvestWelds, with identical
// unit accounting. Emitted welds are fresh packed values (results, not
// scratch).
func harvestWeldsPacked(contig seq.Packed, ci int, contigs []seq.Packed, ix *kmer.Multimap[occurrence], reads jellyfish.View,
	opt GFFOptions, rot int, sc *packedWeldScratch) ([]seq.Packed, float64) {
	k := opt.K
	flank := k / 2
	window := 2 * k
	var units float64
	n := contig.Len() - k + 1
	if n <= 0 {
		return nil, 1
	}
	sc.prepareContigPacked(contig, k, n, opt.MaxWeldsPerContig)
	var welds []seq.Packed
	for step := 0; step < n; step++ {
		p := (step + rot) % n
		units++
		if !sc.valid[p] {
			continue
		}
		m := sc.kmers[p]
		lo := p - flank
		hi := lo + window // length 2k even when k is odd
		if lo < 0 || hi > contig.Len() {
			continue // window must fit inside the contig
		}
		contig.SliceInto(&sc.win, lo, hi)
		if sc.dedupSeenPacked(sc.win, welds) {
			continue
		}
		// Same strand first, then the reverse complement — identical
		// candidate order and unit charges to the ASCII kernel.
		matched := false
		for _, o := range ix.Row(m) {
			if int(o.contig) == ci {
				continue
			}
			other := contigs[o.contig]
			olo := int(o.pos) - flank
			units += float64(window)
			if olo >= 0 && olo+window <= other.Len() && other.EqualRange(olo, contig, lo, window) {
				matched = true
				break
			}
		}
		if !matched {
			rcSeed := m.ReverseComplement(k)
			units++
			sc.win.ReverseComplementInto(&sc.rc)
			// Within RC(w), the RC seed starts at offset k-flank.
			for _, o := range ix.Row(rcSeed) {
				if int(o.contig) == ci {
					continue
				}
				other := contigs[o.contig]
				olo := int(o.pos) - (k - flank)
				units += float64(window)
				if olo >= 0 && olo+window <= other.Len() && other.EqualRange(olo, sc.rc, 0, window) {
					matched = true
					break
				}
			}
		}
		if !matched {
			continue
		}
		supported, probes := weldSupportPacked(contig, lo, hi, k, reads, opt.MinWeldSupport)
		units += float64(probes)
		if !supported {
			continue
		}
		w := contig.Slice(lo, hi) // fresh copy: the weld outlives the scratch
		sc.dedupAddPacked(w, int32(len(welds)))
		welds = append(welds, w)
		if len(welds) >= opt.MaxWeldsPerContig {
			break
		}
	}
	return welds, units
}

// encodeWeldFrames converts harvested packed welds to wire-frame
// strings for the exchange/checkpoint plumbing.
func encodeWeldFrames(welds []seq.Packed) []string {
	out := make([]string, len(welds))
	var buf []byte
	for i := range welds {
		buf = welds[i].AppendEncode(buf[:0])
		out[i] = string(buf)
	}
	return out
}

// poolWeldsPacked merges per-rank wire-framed weld sets into a
// deduplicated global list sorted by Packed.Compare — the exact
// sort.Strings order of the decoded ASCII, so every downstream dense
// id matches the ASCII path.
func poolWeldsPacked(parts [][]byte) []seq.Packed {
	var pool []seq.Packed
	var rc seq.Packed
	for _, p := range parts {
		for _, frame := range unpackWelds(p) {
			w, _, err := seq.DecodePacked([]byte(frame))
			if err != nil || w.Len() == 0 {
				continue
			}
			w.ReverseComplementInto(&rc)
			if rc.Compare(w) < 0 {
				w, rc = rc, w
				// rc now aliases the decoded value; the kept w aliases the
				// scratch, so detach it before the next iteration reuses it.
				w = w.Slice(0, w.Len())
			}
			pool = append(pool, w)
		}
	}
	slices.SortFunc(pool, seq.Packed.Compare)
	return slices.CompactFunc(pool, seq.Packed.Equal)
}

// buildPackedWeldIndex is buildWeldIndex over packed welds: identical
// keys, ids and row order.
func buildPackedWeldIndex(welds []seq.Packed, k int) *weldIndex[seq.Packed] {
	flank := k / 2
	return newWeldIndex(welds, k, seq.Packed.ReverseComplement, func(w seq.Packed) (kmer.Kmer, bool) {
		if w.Len() < flank+k {
			return 0, false
		}
		return kmer.PackedEncodeAt(w, flank, k)
	})
}

// scanContigForWeldsPacked is loop 2's per-contig body over packed
// data: identical probe order, window verification, per-weld stamping,
// and unit accounting to scanContigForWelds.
func scanContigForWeldsPacked(contig seq.Packed, ci int, ix *weldIndex[seq.Packed], sc *packedWeldScratch) ([][2]int32, float64) {
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
	it := kmer.NewPackedIterator(contig, k)
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
			var want seq.Packed
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
			if lo < 0 || lo+window > contig.Len() {
				continue
			}
			units += float64(window)
			if contig.EqualRange(lo, want, 0, window) {
				sc.stamp[ref.id] = sc.epoch
				out = append(out, [2]int32{ref.id, int32(ci)})
			}
		}
	}
	sc.pairs = out
	return out, units
}

// decodeWelds materialises the pooled packed welds as ASCII strings —
// the output boundary of GraphFromFasta; order is preserved.
func decodeWelds(welds []seq.Packed) []string {
	out := make([]string, len(welds))
	for i := range welds {
		out[i] = string(welds[i].Decode()) // ascii-ok: GFFResult.Welds output boundary, once per pooled weld
	}
	return out
}
