package butterfly

// The map implementation of pair support this package ran on until the
// k-mer spine moved to kmer.FlatSet ids and dense arrays — one
// map[kmer.Kmer]bool per transcript, every pair's mates scanned once
// per transcript — kept as the oracle the per-component index is
// compared against; and the path enumeration this package ran on until
// the walk shared one path buffer — a copy of the path per DFS step, a
// map of visited unitigs per source, a reflective coverage sort — kept
// as the oracle the walker is compared against.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/dbg"
	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

func transcriptKmerSet(s []byte) map[kmer.Kmer]bool {
	set := make(map[kmer.Kmer]bool, len(s))
	it := kmer.NewIterator(s, PairSupportK)
	for {
		m, _, ok := it.Next()
		if !ok {
			return set
		}
		set[m] = true
	}
}

// mateMatches reports whether at least minMateKmers k-mers of the read
// or of its reverse complement are in kmers. The reverse complement's
// k-mers are the reverse complements of the read's, so one pass over
// the read counts both orientations.
func mateMatches(read []byte, kmers map[kmer.Kmer]bool) bool {
	fwd, rc := 0, 0
	it := kmer.NewIterator(read, PairSupportK)
	for {
		m, _, ok := it.Next()
		if !ok {
			return false
		}
		if kmers[m] {
			if fwd++; fwd >= minMateKmers {
				return true
			}
		}
		if kmers[m.ReverseComplement(PairSupportK)] {
			if rc++; rc >= minMateKmers {
				return true
			}
		}
	}
}

func mapPairSupport(ts []Transcript, graphs []*chrysalis.ComponentGraph, reads []seq.Record) []int {
	pairsByComp := map[int][][2]int32{}
	for _, cg := range graphs {
		if pairs := componentPairs(cg, reads); len(pairs) > 0 {
			pairsByComp[cg.Component.ID] = pairs
		}
	}
	support := make([]int, len(ts))
	for ti := range ts {
		kmers := transcriptKmerSet(ts[ti].Seq)
		for _, p := range pairsByComp[ts[ti].Component] {
			if mateMatches(reads[p[0]].Seq, kmers) && mateMatches(reads[p[1]].Seq, kmers) {
				support[ti]++
			}
		}
	}
	return support
}

// spinePairScenario: a generated paired-end read set (some reads with
// an N, one shorter than k) against transcript sets that share
// k-mers — each gene's isoforms, a chimera of two genes and a
// reverse-complemented isoform per component — with every read
// assigned to every component, so matching and non-matching mates,
// both orientations, both hit thresholds and repeated k-mers all occur.
func spinePairScenario(p rnaseq.Profile) ([]Transcript, []*chrysalis.ComponentGraph, []seq.Record) {
	d := rnaseq.Generate(p)
	rng := rand.New(rand.NewSource(p.Seed))
	reads := d.Reads
	for i := range reads {
		if i%9 == 0 {
			s := append([]byte(nil), reads[i].Seq...)
			s[rng.Intn(len(s))] = 'N'
			reads[i].Seq = s
		}
	}
	reads = append(reads, seq.Record{ID: "tiny/1", Seq: []byte("ACGT")}, seq.Record{ID: "tiny/2", Seq: []byte("ACGT")})
	all := make([]int32, len(reads)+1)
	for i := range all {
		all[i] = int32(i) // the last index is out of range, as componentPairs tolerates
	}
	var ts []Transcript
	var graphs []*chrysalis.ComponentGraph
	for _, ref := range d.Reference {
		if ref.Gene >= len(graphs) {
			graphs = append(graphs, &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: 10 * ref.Gene}, Reads: all})
		}
		ts = append(ts, Transcript{Component: 10 * ref.Gene, Seq: ref.Seq})
	}
	n := len(ts)
	for i := 0; i < n; i += 2 { // out of component order on purpose
		other := ts[(i+3)%n].Seq
		ts = append(ts,
			Transcript{Component: ts[i].Component, Seq: append(append([]byte(nil), ts[i].Seq[:len(ts[i].Seq)/2]...), other[len(other)/2:]...)},
			Transcript{Component: ts[i].Component, Seq: seq.ReverseComplement(ts[i].Seq)},
			Transcript{Component: ts[i].Component, Seq: bytes.Repeat(ts[i].Seq[:40], 3)},
			Transcript{Component: ts[i].Component, Seq: []byte("ACGTNNACGT")})
	}
	ts = append(ts, Transcript{Component: 7, Seq: ts[0].Seq}) // a component with no graph
	graphs = append(graphs, &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: 9999}, Reads: all[:40]})
	return ts, graphs, reads
}

// TestPairSupportMatchesMapOracle: the per-component index must count
// exactly what the per-transcript k-mer sets counted, at any worker
// count.
func TestPairSupportMatchesMapOracle(t *testing.T) {
	small := rnaseq.Sugarbeet(5)
	small.Genes, small.Reads = 8, 800
	for _, p := range []rnaseq.Profile{rnaseq.Tiny(4), small} {
		ts, graphs, reads := spinePairScenario(p)
		want := mapPairSupport(ts, graphs, reads)
		if slices.Max(want) == 0 {
			t.Fatal("scenario has no supported transcript")
		}
		for _, workers := range []int{1, 4} {
			if got := PairSupportParallel(ts, graphs, reads, workers); !slices.Equal(got, want) {
				t.Fatalf("workers=%d: support %v, map oracle %v", workers, got, want)
			}
		}
	}
}

// One mate scan allocates nothing once the index is warm.
func TestMateScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ts, _, reads := buildPairScenario(t)
	var ix mateIndex
	ix.build(ts, []int{0, 1})
	ix.scan(reads[0].Seq)
	if len(ix.touched) != 2 || !ix.matches(0) {
		t.Fatalf("warm-up scan touched %v", ix.touched)
	}
	if n := testing.AllocsPerRun(100, func() { ix.scan(reads[1].Seq) }); n != 0 {
		t.Errorf("a mate scan allocates %v times", n)
	}
}

// oracleReconstruct is the serial reconstruction on the oracle walk.
func oracleReconstruct(graphs []*chrysalis.ComponentGraph, opt Options) []Transcript {
	opt.normalize()
	var out []Transcript
	for _, cg := range graphs {
		out = append(out, oracleComponentTranscripts(cg, opt)...)
	}
	return out
}

// oracleComponentTranscripts enumerates one component's transcripts — the
// shared per-component body of Reconstruct and ReconstructParallel.
// opt must already be normalized.
func oracleComponentTranscripts(cg *chrysalis.ComponentGraph, opt Options) []Transcript {
	if opt.CleanGraph {
		cg.Graph.ClipTipsWith(new(dbg.Scratch), 0, 0.2)
		cg.Graph.PopBubblesWith(new(dbg.Scratch), 0, 0.2)
	}
	paths := oracleReconstructComponent(cg.Graph, opt)
	var out []Transcript
	for i, p := range paths {
		if opt.MinTranscriptLen > 0 && len(p.seq) < opt.MinTranscriptLen {
			continue
		}
		out = append(out, Transcript{
			Component: cg.Component.ID,
			Index:     i,
			ID:        fmt.Sprintf("comp%d_seq%d", cg.Component.ID, i),
			Seq:       p.seq,
			Coverage:  p.coverage,
		})
	}
	return out
}

// oracleReconstructComponent compacts one graph and DFS-enumerates
// source→sink unitig paths, pruning weak branches.
func oracleReconstructComponent(g *dbg.Graph, opt Options) []path {
	if g.NodeCount() == 0 {
		return nil
	}
	c := g.Compact()
	sources := c.AppendSources(nil)
	if len(sources) == 0 {
		// Pure cycle: start from every unitig, the depth cap terminates.
		for i := range c.Unitigs {
			sources = append(sources, i)
		}
	}
	var paths []path
	var walk func(u int, soFar []byte, covSum float64, covN int, depth int, visited map[int]bool)
	walk = func(u int, soFar []byte, covSum float64, covN int, depth int, visited map[int]bool) {
		if len(paths) >= opt.MaxPathsPerComponent || depth > opt.MaxDepth {
			return
		}
		unit := &c.Unitigs[u]
		var ext []byte
		if len(soFar) == 0 {
			ext = unit.Seq
		} else if len(unit.Seq) >= c.K-1 {
			ext = unit.Seq[c.K-1:] // (k-1)-overlap merge
		}
		cur := append(append([]byte(nil), soFar...), ext...)
		covSum += unit.Coverage
		covN++
		// Successors passing the coverage filters, strongest first.
		var nexts []int
		bestCov := 0.0
		for _, s := range unit.Out {
			if visited[s] {
				continue
			}
			if cv := c.Unitigs[s].Coverage; cv > bestCov {
				bestCov = cv
			}
		}
		for _, s := range unit.Out {
			if visited[s] {
				continue
			}
			cv := c.Unitigs[s].Coverage
			if cv < opt.MinCoverage || cv < bestCov*opt.MinCoverageFrac {
				continue
			}
			nexts = append(nexts, s)
		}
		oracleSortByCoverage(nexts, c, opt.Seed)
		if len(nexts) == 0 {
			paths = append(paths, path{seq: cur, coverage: covSum / float64(covN)})
			return
		}
		visited[u] = true
		for _, s := range nexts {
			walk(s, cur, covSum, covN, depth+1, visited)
			if len(paths) >= opt.MaxPathsPerComponent {
				break
			}
		}
		delete(visited, u)
	}
	// Strongest sources first so the cap keeps the best-supported paths.
	oracleSortByCoverage(sources, c, opt.Seed)
	seenStart := map[int]bool{}
	for _, s := range sources {
		if seenStart[s] {
			continue
		}
		seenStart[s] = true
		walk(s, nil, 0, 0, 0, map[int]bool{})
		if len(paths) >= opt.MaxPathsPerComponent {
			break
		}
	}
	// Deduplicate identical sequences (diamond motifs can repeat) and
	// reverse-complement duplicates: the strand-specific contigs of one
	// transcript yield the same isoform in both orientations once the
	// component welds the strands together, and only one is reported
	// (Trinity's double-stranded mode).
	uniq := paths[:0]
	seen := map[string]bool{}
	for _, p := range paths {
		canon := string(p.seq)
		if rc := string(seq.ReverseComplement(p.seq)); rc < canon {
			canon = rc
		}
		if seen[canon] {
			continue
		}
		seen[canon] = true
		uniq = append(uniq, p)
	}
	sort.Slice(uniq, func(i, j int) bool {
		if len(uniq[i].seq) != len(uniq[j].seq) {
			return len(uniq[i].seq) > len(uniq[j].seq)
		}
		return string(uniq[i].seq) < string(uniq[j].seq)
	})
	return uniq
}

// oracleSortByCoverage orders unitig ids by decreasing coverage bucket
// (~15%-wide logarithmic buckets), breaking ties within a bucket by id
// when seed is 0 or by a seed-keyed hash otherwise.
func oracleSortByCoverage(ids []int, c *dbg.Compacted, seed int64) {
	bucket := func(u int) int {
		return int(math.Log(c.Unitigs[u].Coverage+1) / math.Log(1.15))
	}
	key := func(u int) uint64 {
		if seed == 0 {
			return uint64(u)
		}
		h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(u)*0xbf58476d1ce4e5b9
		h ^= h >> 31
		h *= 0x94d049bb133111eb
		return h ^ h>>29
	}
	sort.Slice(ids, func(i, j int) bool {
		bi, bj := bucket(ids[i]), bucket(ids[j])
		if bi != bj {
			return bi > bj
		}
		ki, kj := key(ids[i]), key(ids[j])
		if ki != kj {
			return ki < kj
		}
		return ids[i] < ids[j]
	})
}
