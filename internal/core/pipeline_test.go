package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/inchworm"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/sw"
)

func tinyConfig() Config {
	return Config{
		K:              21,
		ThreadsPerRank: 2,
		Bowtie:         bowtie.Options{SeedLen: 14, Threads: 2},
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(42))
	res, err := Run(d.Reads, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) == 0 {
		t.Fatal("no contigs")
	}
	if len(res.Transcripts) == 0 {
		t.Fatal("no transcripts")
	}
	if res.GFF == nil || len(res.GFF.Components) == 0 {
		t.Fatal("no components")
	}
	if res.R2T == nil || len(res.R2T.Assignments) == 0 {
		t.Fatal("no read assignments")
	}
	if res.Trace == nil || len(res.Trace.Stages) != 7 {
		t.Fatalf("trace stages = %v", res.Trace)
	}
	wantStages := []string{"jellyfish", "inchworm", "bowtie", "graphfromfasta", "readstotranscripts", "fastatodebruijn", "butterfly"}
	for i, w := range wantStages {
		if res.Trace.Stages[i].Name != w {
			t.Errorf("stage %d = %s, want %s", i, res.Trace.Stages[i].Name, w)
		}
	}
}

// The headline scientific claim: transcripts reconstructed by the
// pipeline must recover the reference transcripts (most of the
// expressed ones at full length).
func TestPipelineRecoversReference(t *testing.T) {
	p := rnaseq.Tiny(7)
	p.Reads = 4000 // deeper coverage for full-length recovery
	p.ErrorRate = 0
	d := rnaseq.Generate(p)
	res, err := Run(d.Reads, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	genes := map[int]bool{}
	for _, ref := range d.Reference {
		if ref.Isoform != 0 {
			continue // check the primary isoform of each gene
		}
		genes[ref.Gene] = true
		for _, tr := range res.Transcripts {
			if full, id := sw.FullLengthIdentity(ref.Seq, tr.Seq, sw.DefaultScoring(), 0.9); full && id > 0.95 {
				recovered++
				break
			}
		}
	}
	if recovered < len(genes)*6/10 {
		t.Errorf("recovered %d of %d primary isoforms at full length", recovered, len(genes))
	}
}

// nprocs must not change the scientific output (modulo nothing at all,
// since our hybrid is deterministic for a fixed seed).
func TestPipelineRankInvariance(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(9))
	cfg := tinyConfig()
	base, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ranks = 4
	dist, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Transcripts) != len(dist.Transcripts) {
		t.Fatalf("transcripts: serial %d vs hybrid %d", len(base.Transcripts), len(dist.Transcripts))
	}
	baseSet := map[string]bool{}
	for _, tr := range base.Transcripts {
		baseSet[string(tr.Seq)] = true
	}
	for _, tr := range dist.Transcripts {
		if !baseSet[string(tr.Seq)] {
			t.Fatalf("hybrid transcript %s missing from serial run", tr.ID)
		}
	}
}

func TestPipelineSeedPerturbsOutput(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(10))
	cfg := tinyConfig()
	cfg.MaxWelds = 1 // tight cap so harvest order matters
	a, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1234
	b, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Outputs are valid either way; both runs must produce transcripts.
	if len(a.Transcripts) == 0 || len(b.Transcripts) == 0 {
		t.Fatal("seeded runs lost transcripts")
	}
}

func TestPipelineErrorOnNoReads(t *testing.T) {
	if _, err := Run(nil, tinyConfig()); err == nil {
		t.Error("accepted empty read set")
	}
}

func TestPipelineRejectsBadK(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(1))
	cfg := tinyConfig()
	cfg.K = 99
	if _, err := Run(d.Reads, cfg); err == nil {
		t.Error("accepted k=99")
	}
}

func TestScaffoldPairs(t *testing.T) {
	als := []bowtie.Alignment{
		{ReadID: "x/1", Contig: 0},
		{ReadID: "x/2", Contig: 3},
		{ReadID: "y/1", Contig: 2},
		{ReadID: "y/2", Contig: 2}, // same contig: no pair
		{ReadID: "z", Contig: 1},   // unpaired: ignored
		{ReadID: "w/2", Contig: 5},
		{ReadID: "w/1", Contig: 4}, // order-independent
		{ReadID: "v/1", Contig: 3},
		{ReadID: "v/2", Contig: 0}, // duplicate of (0,3)
	}
	pairs := ScaffoldPairs(als)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0] != [2]int32{0, 3} || pairs[1] != [2]int32{4, 5} {
		t.Errorf("pairs = %v", pairs)
	}
}

func TestPairBase(t *testing.T) {
	if b, ok := pairBase("read7/1"); !ok || b != "read7" {
		t.Errorf("pairBase = %q %v", b, ok)
	}
	if _, ok := pairBase("read7"); ok {
		t.Error("unpaired id accepted")
	}
}

func TestTranscriptRecords(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(2))
	res, err := Run(d.Reads, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := res.TranscriptRecords()
	if len(recs) != len(res.Transcripts) {
		t.Fatal("record count mismatch")
	}
	for _, r := range recs {
		if !strings.HasPrefix(r.ID, "comp") {
			t.Errorf("record id %s", r.ID)
		}
	}
}

// Fixed seed and config must give byte-identical output across runs —
// the determinism guarantee that lets the validation figures attribute
// all variation to the seed.
func TestPipelineDeterministicAcrossRuns(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(55))
	cfg := tinyConfig()
	cfg.Seed = 7
	a, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transcripts) != len(b.Transcripts) {
		t.Fatalf("transcript counts differ: %d vs %d", len(a.Transcripts), len(b.Transcripts))
	}
	for i := range a.Transcripts {
		if string(a.Transcripts[i].Seq) != string(b.Transcripts[i].Seq) {
			t.Fatalf("transcript %d differs between identical runs", i)
		}
	}
	if len(a.GFF.Welds) != len(b.GFF.Welds) || len(a.R2T.Assignments) != len(b.R2T.Assignments) {
		t.Error("intermediate products differ between identical runs")
	}
}

func TestPipelineSampler(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(66))
	cfg := tinyConfig()
	cfg.SampleInterval = time.Millisecond
	res, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Error("sampler produced no samples")
	}
	if len(res.Marks) != 7 {
		t.Errorf("marks = %d, want one per stage", len(res.Marks))
	}
	if res.Marks[0].Label != "jellyfish" || res.Marks[6].Label != "butterfly" {
		t.Errorf("mark labels: %+v", res.Marks)
	}
}

// TestPipelineShardKmersIdentical runs the full pipeline with the
// Chrysalis lookup state sharded across ranks and requires transcripts,
// welds and assignments identical to the replicated run.
func TestPipelineShardKmersIdentical(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(77))
	cfg := tinyConfig()
	cfg.Ranks = 3
	base, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShardKmers = true
	res, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transcripts) != len(base.Transcripts) {
		t.Fatalf("transcript counts differ: %d vs %d", len(res.Transcripts), len(base.Transcripts))
	}
	for i := range res.Transcripts {
		if string(res.Transcripts[i].Seq) != string(base.Transcripts[i].Seq) {
			t.Fatalf("transcript %d differs from replicated run", i)
		}
	}
	if len(res.GFF.Welds) != len(base.GFF.Welds) || len(res.R2T.Assignments) != len(base.R2T.Assignments) {
		t.Error("intermediate products differ from replicated run")
	}
}

// TestInchwormDictionaryFilter pins the filtered dictionary hand-off:
// runInchworm takes only the entries Inchworm's error filter keeps, so
// its contigs and kept count must equal an Inchworm run over the whole
// table at the same threshold — including MinKmerCount 1, where every
// singleton must survive — and KmersIn must still count every distinct
// k-mer offered.
func TestInchwormDictionaryFilter(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(3))
	for _, minCount := range []int{0, 1, 3} {
		cfg := tinyConfig()
		cfg.MinKmerCount = minCount
		res, err := Run(d.Reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		table, err := jellyfish.Count(d.Reads, jellyfish.Options{K: cfg.K})
		if err != nil {
			t.Fatal(err)
		}
		want, st, err := inchworm.Run(table.Entries(1), inchworm.Options{K: cfg.K, MinKmerCount: minCount})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Contigs, want) {
			t.Errorf("MinKmerCount=%d: contigs differ from Inchworm over the unfiltered dictionary", minCount)
		}
		if res.InchwormStats != st {
			t.Errorf("MinKmerCount=%d: stats %+v, want %+v", minCount, res.InchwormStats, st)
		}
		if minCount == 1 && st.KmersKept != st.KmersIn {
			t.Errorf("MinKmerCount=1 dropped k-mers: kept %d of %d", st.KmersKept, st.KmersIn)
		}
	}
}
