package chrysalis

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// Differential battery for the zero-allocation kernel rewrite: every
// frozen flat structure (contig and weld Multimap indexes, flat bundle
// table, frozen count table) and every scratch-reuse loop body is
// pinned against the map-based reference implementation it replaced —
// same results, same work-unit meters — on randomized inputs that
// include ambiguous bases, empty sequences, and rotated scan starts.
// The references below are copies of the pre-rewrite kernels, string
// welds and all; the harvest reference has since gained the rule that
// a window with an ambiguous base is no weld candidate.

// --- map-based reference kernels ------------------------------------

type refContigKmerIndex struct {
	k        int
	contigs  [][]byte
	occs     map[kmer.Kmer][]occurrence
	buildOps int64
}

func buildRefContigKmerIndex(contigs [][]byte, k int) *refContigKmerIndex {
	ix := &refContigKmerIndex{k: k, contigs: contigs, occs: make(map[kmer.Kmer][]occurrence)}
	for ci, s := range contigs {
		it := kmer.NewIterator(s, k)
		for {
			m, pos, ok := it.Next()
			if !ok {
				break
			}
			ix.buildOps++
			ix.occs[m] = append(ix.occs[m], occurrence{int32(ci), int32(pos)})
		}
	}
	return ix
}

func refWeldSupport(window []byte, k int, reads *jellyfish.CountTable, minSupport int) (bool, int64) {
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

func refHarvestWelds(contig []byte, ci int, ix *refContigKmerIndex, reads *jellyfish.CountTable,
	opt GFFOptions, rot int) ([]string, float64) {
	k := opt.K
	flank := k / 2
	window := 2 * k
	var units float64
	n := len(contig) - k + 1
	if n <= 0 {
		return nil, 1
	}
	var welds []string
	seen := map[string]bool{}
	for step := 0; step < n; step++ {
		p := (step + rot) % n
		m, ok := kmer.Encode(contig[p:p+k], k)
		units++
		if !ok {
			continue
		}
		lo := p - flank
		hi := lo + window
		if lo < 0 || hi > len(contig) {
			continue
		}
		w := contig[lo:hi]
		if slices.ContainsFunc(w, func(b byte) bool { _, ok := seq.BaseIndex(b); return !ok }) {
			continue // a window with an ambiguous base is no weld candidate
		}
		if seen[string(w)] {
			continue
		}
		matched := false
		for _, o := range ix.occs[m] {
			if int(o.contig) == ci {
				continue
			}
			other := ix.contigs[o.contig]
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
			rcWin := seq.ReverseComplement(w)
			for _, o := range ix.occs[rcSeed] {
				if int(o.contig) == ci {
					continue
				}
				other := ix.contigs[o.contig]
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
		supported, probes := refWeldSupport(w, k, reads, opt.MinWeldSupport)
		units += float64(probes)
		if !supported {
			continue
		}
		seen[string(w)] = true
		welds = append(welds, string(w))
		if len(welds) >= opt.MaxWeldsPerContig {
			break
		}
	}
	return welds, units
}

type refWeldIndex struct {
	k       int
	byCore  map[kmer.Kmer][]weldRef
	welds   []string
	rcWelds []string
}

func buildRefWeldIndex(welds []string, k int) *refWeldIndex {
	flank := k / 2
	ix := &refWeldIndex{
		k:       k,
		byCore:  make(map[kmer.Kmer][]weldRef),
		welds:   welds,
		rcWelds: make([]string, len(welds)),
	}
	for id, w := range welds {
		ix.rcWelds[id] = string(seq.ReverseComplement([]byte(w)))
		if len(w) < flank+k {
			continue
		}
		core, ok := kmer.Encode([]byte(w[flank:flank+k]), k)
		if !ok {
			continue
		}
		ix.byCore[core] = append(ix.byCore[core], weldRef{int32(id), false})
		rcCore := core.ReverseComplement(k)
		if rcCore != core {
			ix.byCore[rcCore] = append(ix.byCore[rcCore], weldRef{int32(id), true})
		}
	}
	return ix
}

func refScanContigForWelds(contig []byte, ci int, ix *refWeldIndex) ([][2]int32, float64) {
	k := ix.k
	flank := k / 2
	window := 2 * k
	var out [][2]int32
	var units float64
	it := kmer.NewIterator(contig, k)
	emitted := map[int32]bool{}
	for {
		m, pos, ok := it.Next()
		if !ok {
			break
		}
		units++
		refs := ix.byCore[m]
		if len(refs) == 0 {
			continue
		}
		for _, ref := range refs {
			if emitted[ref.id] {
				continue
			}
			var lo int
			var want string
			if !ref.rc {
				lo = pos - flank
				want = ix.welds[ref.id]
			} else {
				lo = pos - (k - flank)
				want = ix.rcWelds[ref.id]
			}
			if lo < 0 || lo+window > len(contig) {
				continue
			}
			units += float64(window)
			if string(contig[lo:lo+window]) == want {
				emitted[ref.id] = true
				out = append(out, [2]int32{ref.id, int32(ci)})
			}
		}
	}
	return out, units
}

type refBundleKmerTable struct {
	k     int
	owner map[kmer.Kmer]int32
	ops   int64
}

func buildRefBundleKmerTable(contigs []seq.Record, comps []Component, k int) *refBundleKmerTable {
	t := &refBundleKmerTable{k: k, owner: make(map[kmer.Kmer]int32)}
	for _, comp := range comps {
		for _, ci := range comp.Contigs {
			it := kmer.NewIterator(contigs[ci].Seq, k)
			for {
				m, _, ok := it.Next()
				if !ok {
					break
				}
				t.ops++
				if old, exists := t.owner[m]; !exists || int32(comp.ID) < old {
					t.owner[m] = int32(comp.ID)
				}
			}
		}
	}
	return t
}

func refAssignRead(read []byte, t *refBundleKmerTable, minMatches int) (int32, int32, float64) {
	var units float64
	counts := map[int32]int32{}
	tally := func(s []byte) {
		it := kmer.NewIterator(s, t.k)
		for {
			m, _, ok := it.Next()
			if !ok {
				return
			}
			units++
			if comp, ok := t.owner[m]; ok {
				counts[comp]++
			}
		}
	}
	tally(read)
	tally(seq.ReverseComplement(read))
	best := int32(-1)
	var bestN int32
	for comp, n := range counts {
		if n > bestN || (n == bestN && best >= 0 && comp < best) {
			best, bestN = comp, n
		}
	}
	if bestN < int32(minMatches) {
		return -1, 0, units
	}
	return best, bestN, units
}

// buildContigKmerIndex and buildPackedContigIndex build the replicated
// occurrence index GraphFromFasta probes, from ASCII or packed contigs.
func buildContigKmerIndex(contigs [][]byte, k int) *kmer.Multimap[occurrence] {
	return buildGFFSource(contigs, nil, k, nil).occs(0, 0)
}

func buildPackedContigIndex(contigs []seq.Packed, k int) *kmer.Multimap[occurrence] {
	return buildGFFSource(nil, contigs, k, nil).occs(0, 0)
}

// --- randomized scenario --------------------------------------------

// kernelScenario builds contigs that genuinely weld: random backbones
// with long shared regions spliced in forward and reverse-complement
// orientation, plus ambiguous bases and degenerate (empty / short)
// contigs, and a read table tiling everything.
type kernelScenario struct {
	contigs [][]byte
	records []seq.Record
	reads   []seq.Record
	table   *jellyfish.CountTable
	frozen  *jellyfish.Frozen
	k       int
}

func buildKernelScenario(t testing.TB, seed int64, nContigs int) *kernelScenario {
	t.Helper()
	const k = 15
	rng := rand.New(rand.NewSource(seed))
	dna := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	shared := dna(3 * k)
	var contigs [][]byte
	for i := 0; i < nContigs; i++ {
		switch i % 5 {
		case 0: // shared region forward
			contigs = append(contigs, append(append(dna(40+rng.Intn(60)), shared...), dna(40+rng.Intn(60))...))
		case 1: // shared region reverse-complemented
			rc := seq.ReverseComplement(shared)
			contigs = append(contigs, append(append(dna(40+rng.Intn(60)), rc...), dna(40+rng.Intn(60))...))
		case 2: // unrelated
			contigs = append(contigs, dna(120+rng.Intn(120)))
		case 3: // ambiguous bases sprinkled in
			c := dna(150)
			for j := 0; j < 6; j++ {
				c[rng.Intn(len(c))] = 'N'
			}
			contigs = append(contigs, c)
		default: // degenerate: empty or shorter than k
			contigs = append(contigs, dna(rng.Intn(k)))
		}
	}
	sc := &kernelScenario{contigs: contigs, k: k}
	for _, c := range contigs {
		sc.records = append(sc.records, seq.Record{ID: "c", Seq: c})
		for rep := 0; rep < 3; rep++ {
			for s := 0; s+50 <= len(c); s += 10 {
				sc.reads = append(sc.reads, seq.Record{ID: "r", Seq: c[s : s+50]})
			}
		}
	}
	table, err := jellyfish.Count(sc.reads, jellyfish.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	sc.table = table
	sc.frozen = table.Freeze()
	return sc
}

// --- differential tests ---------------------------------------------

func TestContigKmerIndexDifferential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sc := buildKernelScenario(t, seed, 20)
		src := buildGFFSource(sc.contigs, nil, sc.k, nil)
		flat := src.occs(0, 0)
		ref := buildRefContigKmerIndex(sc.contigs, sc.k)
		if buildOps := int64(len(src.keys)); buildOps != ref.buildOps {
			t.Fatalf("seed %d: buildOps %d vs %d", seed, buildOps, ref.buildOps)
		}
		if flat.Len() != len(ref.occs) {
			t.Fatalf("seed %d: distinct %d vs %d", seed, flat.Len(), len(ref.occs))
		}
		for m, want := range ref.occs {
			if got := flat.Row(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: occs(%v) = %v, want %v", seed, m, got, want)
			}
		}
		rng := rand.New(rand.NewSource(seed * 77))
		for i := 0; i < 300; i++ {
			m := kmer.Kmer(rng.Uint64() & ((1 << uint(2*sc.k)) - 1))
			got, want := flat.Row(m), ref.occs[m]
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("seed %d: random occs(%v) = %v, want %v", seed, m, got, want)
			}
		}
	}
}

func TestHarvestWeldsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sc := buildKernelScenario(t, seed, 20)
		flat := buildContigKmerIndex(sc.contigs, sc.k)
		ref := buildRefContigKmerIndex(sc.contigs, sc.k)
		scr := new(weldScratch)
		for _, maxWelds := range []int{100, 2} {
			opt := GFFOptions{K: sc.k, MinWeldSupport: 2, MaxWeldsPerContig: maxWelds}
			for ci, contig := range sc.contigs {
				for _, rot := range []int{0, 1, len(contig) / 2} {
					if len(contig)-sc.k+1 > 0 {
						rot %= len(contig) - sc.k + 1
					} else {
						rot = 0
					}
					gotW, gotU := harvestWelds(nil, contig, ci, sc.contigs, flat, sc.frozen, opt, rot, scr)
					wantW, wantU := refHarvestWelds(contig, ci, ref, sc.table, opt, rot)
					if got := weldStrings(gotW, sc.k); !slices.Equal(got, wantW) {
						t.Fatalf("seed %d contig %d rot %d cap %d: welds %v vs %v",
							seed, ci, rot, maxWelds, gotW, wantW)
					}
					if gotU != wantU {
						t.Fatalf("seed %d contig %d rot %d cap %d: units %g vs %g",
							seed, ci, rot, maxWelds, gotU, wantU)
					}
				}
			}
		}
	}
}

func TestWeldSupportDifferential(t *testing.T) {
	sc := buildKernelScenario(t, 6, 12)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		c := sc.contigs[rng.Intn(len(sc.contigs))]
		if len(c) < 2*sc.k {
			continue
		}
		lo := rng.Intn(len(c) - 2*sc.k + 1)
		w := c[lo : lo+2*sc.k]
		var kmers []kmer.Kmer
		for i := 0; i <= sc.k; i++ {
			if m, ok := kmer.Encode(w[i:], sc.k); ok {
				kmers = append(kmers, m)
			}
		}
		if len(kmers) <= sc.k {
			continue // an ambiguous window is never probed
		}
		for _, minSupport := range []int{1, 2, 1000} {
			gotOK, gotP := weldSupport(kmers, sc.k, sc.frozen, minSupport)
			wantOK, wantP := refWeldSupport(w, sc.k, sc.table, minSupport)
			if gotOK != wantOK || gotP != wantP {
				t.Fatalf("minSupport %d: (%v,%d) vs (%v,%d)", minSupport, gotOK, gotP, wantOK, wantP)
			}
		}
	}
}

// pooledWelds harvests every contig and pools the result — realistic
// weld input for the loop-2 differentials.
func pooledWelds(t testing.TB, sc *kernelScenario) []weld {
	t.Helper()
	ref := buildRefContigKmerIndex(sc.contigs, sc.k)
	opt := GFFOptions{K: sc.k, MinWeldSupport: 2, MaxWeldsPerContig: 100}
	var all []string
	for ci, contig := range sc.contigs {
		w, _ := refHarvestWelds(contig, ci, ref, sc.table, opt, 0)
		all = append(all, w...)
	}
	return poolWelds([][]byte{oraclePackWelds(all)}, sc.k, false)
}

func TestWeldIndexDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sc := buildKernelScenario(t, seed, 20)
		welds := pooledWelds(t, sc)
		if len(welds) == 0 {
			t.Fatalf("seed %d: scenario produced no welds", seed)
		}
		flat := buildWeldIndex(welds, sc.k)
		ref := buildRefWeldIndex(weldStrings(welds, sc.k), sc.k)
		for id, w := range welds {
			if got, want := weldStrings([]weld{w.reverseComplement(sc.k)}, sc.k)[0], ref.rcWelds[id]; got != want {
				t.Fatalf("seed %d: weld %d reverse complement %q, want %q", seed, id, got, want)
			}
		}
		if flat.refs.Len() != len(ref.byCore) {
			t.Fatalf("seed %d: distinct cores %d vs %d", seed, flat.refs.Len(), len(ref.byCore))
		}
		for m, want := range ref.byCore {
			if got := flat.refs.Row(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: refs(%v) = %v, want %v", seed, m, got, want)
			}
		}
	}
}

func TestScanContigForWeldsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sc := buildKernelScenario(t, seed, 20)
		welds := pooledWelds(t, sc)
		flat := buildWeldIndex(welds, sc.k)
		ref := buildRefWeldIndex(weldStrings(welds, sc.k), sc.k)
		scr := new(weldScratch)
		for ci, contig := range sc.contigs {
			gotP, gotU := scanContigForWelds(contig, ci, flat, scr)
			wantP, wantU := refScanContigForWelds(contig, ci, ref)
			if len(gotP) != len(wantP) || (len(wantP) > 0 && !reflect.DeepEqual(append([][2]int32(nil), gotP...), wantP)) {
				t.Fatalf("seed %d contig %d: pairs %v vs %v", seed, ci, gotP, wantP)
			}
			if gotU != wantU {
				t.Fatalf("seed %d contig %d: units %g vs %g", seed, ci, gotU, wantU)
			}
		}
	}
}

func TestBundleKmerTableDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sc := buildKernelScenario(t, seed, 20)
		// Overlapping components (shared regions occur in several
		// contigs) exercise the min-id merge.
		comps := []Component{
			{ID: 0, Contigs: []int{0, 1, 2}},
			{ID: 1, Contigs: []int{3, 4, 5, 6}},
			{ID: 2, Contigs: []int{7, 8, 9, 10, 11}},
			{ID: 3, Contigs: []int{12, 13, 14, 15, 16, 17, 18, 19}},
		}
		flat := buildBundleKmerTable(sc.records, comps, sc.k)
		ref := buildRefBundleKmerTable(sc.records, comps, sc.k)
		if flat.ops != ref.ops {
			t.Fatalf("seed %d: ops %d vs %d", seed, flat.ops, ref.ops)
		}
		// One id per canonical k-mer; each answers both orientations.
		owner := func(m kmer.Kmer) int32 {
			if c, ok := ref.owner[m]; ok {
				return c
			}
			return -1
		}
		canon := map[kmer.Kmer]bool{}
		for m := range ref.owner {
			c, _ := m.Canonical(sc.k)
			canon[c] = true
			gotF, gotR := flat.lookup2(m)
			if wantF, wantR := owner(m), owner(m.ReverseComplement(sc.k)); gotF != wantF || gotR != wantR {
				t.Fatalf("seed %d: lookup2(%v) = (%d,%d), want (%d,%d)", seed, m, gotF, gotR, wantF, wantR)
			}
		}
		if flat.set.Len() != len(canon) {
			t.Fatalf("seed %d: distinct %d vs %d canonical", seed, flat.set.Len(), len(canon))
		}
		rng := rand.New(rand.NewSource(seed))
		for misses := 0; misses < 200; {
			m := kmer.Kmer(rng.Uint64() & (1<<uint(2*sc.k) - 1))
			if owner(m) >= 0 || owner(m.ReverseComplement(sc.k)) >= 0 {
				continue
			}
			misses++
			if gotF, gotR := flat.lookup2(m); gotF != -1 || gotR != -1 {
				t.Fatalf("seed %d: absent %v: lookup2 = (%d,%d), want (-1,-1)", seed, m, gotF, gotR)
			}
		}
		// Assignments must agree read by read, including unit meters.
		scr := new(assignScratch)
		for _, r := range sc.reads[:min(len(sc.reads), 400)] {
			gotC, gotM, gotU := assignRead(r.Seq, flat, 1, scr)
			wantC, wantM, wantU := refAssignRead(r.Seq, ref, 1)
			if gotC != wantC || gotM != wantM || gotU != wantU {
				t.Fatalf("seed %d: assign (%d,%d,%g) vs (%d,%d,%g)",
					seed, gotC, gotM, gotU, wantC, wantM, wantU)
			}
		}
	}
}

// --- weld frames -----------------------------------------------------

func TestPackWeldsRoundTrip(t *testing.T) {
	for _, k := range []int{1, 4, 15, 16, 17, 31} {
		rng := rand.New(rand.NewSource(int64(k)))
		ws, _ := weldParts(rng, k, 20)
		welds := mustWelds(t, ws, k)
		for _, packed := range []bool{false, true} {
			for _, n := range []int{0, 1, len(welds)} {
				buf := appendWeldFrames(nil, welds[:n], k, packed)
				if got := appendWelds(nil, buf, k, packed); !slices.Equal(got, welds[:n]) {
					t.Fatalf("k=%d packed=%v: %d welds round trip to %v", k, packed, n, got)
				}
			}
			// A truncated tail must not panic and must keep the complete frames.
			buf := appendWeldFrames(nil, welds[:2], k, packed)
			if got := appendWelds(nil, buf[:len(buf)-1], k, packed); !slices.Equal(got, welds[:1]) {
				t.Fatalf("k=%d packed=%v: truncated frames parse to %v", k, packed, got)
			}
		}
	}
}

// poolWelds must canonicalise and dedupe identically regardless of how
// welds are split across parts, and RC pairs must collapse.
func TestPoolWeldsCanonicalises(t *testing.T) {
	const k = 15
	w := "ACGTACGTACGTACGTACGTACGTACGTAC"
	rc := string(seq.ReverseComplement([]byte(w)))
	other := "TTTTGGGGCCCCAAAATTTTGGGGCCCCAA"
	for _, packed := range []bool{false, true} {
		a := appendWeldFrames(nil, mustWelds(t, []string{w, other}, k), k, packed)
		b := appendWeldFrames(nil, mustWelds(t, []string{rc, other}, k), k, packed)
		pooled := weldStrings(poolWelds([][]byte{a, b}, k, packed), k)
		want := []string{min(w, rc), min(other, string(seq.ReverseComplement([]byte(other))))}
		slices.Sort(want)
		if !slices.Equal(pooled, want) {
			t.Fatalf("packed=%v: pooled %q, want %q", packed, pooled, want)
		}
	}
}

// --- zero-allocation regression tests --------------------------------

// The inner loops of both Chrysalis hot loops must not allocate in
// steady state: the scratch buffers absorb every per-contig and
// per-window temporary, and emitted welds are values appended to the
// caller's reused slice.

func TestWeldSupportZeroAllocs(t *testing.T) {
	sc := buildKernelScenario(t, 9, 10)
	scr := new(weldScratch)
	for _, c := range sc.contigs {
		if len(c) >= 2*sc.k {
			scr.prepareContig(c[:2*sc.k], sc.k)
			break
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		weldSupport(scr.kmers, sc.k, sc.frozen, 2)
	}); avg != 0 {
		t.Errorf("weldSupport allocates %.1f per run, want 0", avg)
	}
}

// TestHarvestWeldsZeroAllocs sweeps every contig, emitted welds
// included: once the scratch and the weld slice are warm, a sweep
// allocates nothing.
func TestHarvestWeldsZeroAllocs(t *testing.T) {
	sc := buildKernelScenario(t, 10, 10)
	ix := buildContigKmerIndex(sc.contigs, sc.k)
	opt := GFFOptions{K: sc.k, MinWeldSupport: 2, MaxWeldsPerContig: 100}
	scr := new(weldScratch)
	var welds []weld
	sweep := func() {
		welds = welds[:0]
		for ci, c := range sc.contigs {
			welds, _ = harvestWelds(welds, c, ci, sc.contigs, ix, sc.frozen, opt, 3, scr)
		}
	}
	sweep()
	if len(welds) == 0 {
		t.Fatal("scenario emits no welds")
	}
	if avg := testing.AllocsPerRun(50, sweep); avg != 0 {
		t.Errorf("harvestWelds allocates %.1f per sweep, want 0", avg)
	}
}

func TestScanContigForWeldsZeroAllocs(t *testing.T) {
	sc := buildKernelScenario(t, 11, 20)
	welds := pooledWelds(t, sc)
	if len(welds) == 0 {
		t.Fatal("scenario produced no welds")
	}
	ix := buildWeldIndex(welds, sc.k)
	scr := new(weldScratch)
	var contig []byte
	for _, c := range sc.contigs {
		if len(c) > 100 {
			contig = c
			break
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		scanContigForWelds(contig, 0, ix, scr)
	}); avg != 0 {
		t.Errorf("scanContigForWelds allocates %.1f per run, want 0", avg)
	}
}

func TestAssignReadZeroAllocs(t *testing.T) {
	sc := buildKernelScenario(t, 12, 10)
	comps := []Component{{ID: 0, Contigs: []int{0, 1, 2, 3, 4}}, {ID: 1, Contigs: []int{5, 6, 7, 8, 9}}}
	table := buildBundleKmerTable(sc.records, comps, sc.k)
	read := sc.reads[0].Seq
	scr := new(assignScratch)
	if avg := testing.AllocsPerRun(200, func() {
		assignRead(read, table, 1, scr)
	}); avg != 0 {
		t.Errorf("assignRead allocates %.1f per run, want 0", avg)
	}
}
