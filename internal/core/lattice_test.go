package core

import (
	"bytes"
	"fmt"
	"testing"

	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

// The config lattice: every surviving switch of core.Config that may
// not change the output, crossed — Ranks × ShardKmers × ASCIISeq ×
// External × TailWorkers × fault seed × in memory (Run) or through
// files (RunFiles) — with one assertion per point: the transcripts
// FASTA is byte-identical to the golden, the default single-rank
// in-memory run. A new switch that must keep the output joins the
// table as one more axis instead of bringing its own battery.

func transcriptsFasta(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := seq.NewFastaWriter(&buf)
	recs := res.TranscriptRecords()
	for i := range recs {
		if err := fw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestConfigLattice(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(31))
	base := tinyConfig()
	base.Seed = 7
	// 150 read chunks instead of the default 2, so the sharded points run
	// ReadsToTranscripts through several fetch tiles per rank at every
	// rank count (checked below) rather than one.
	base.MaxMemReads = 10
	res, err := Run(d.Reads, base)
	if err != nil {
		t.Fatal(err)
	}
	golden := transcriptsFasta(t, res)
	if len(golden) == 0 {
		t.Fatal("empty golden transcripts")
	}
	readsPath := writeReads(t, d.Reads)

	onOff := []bool{false, true}
	for _, ranks := range []int{1, 4, 16} {
		for _, shard := range onOff {
			for _, ascii := range onOff {
				for _, external := range onOff {
					for _, workers := range []int{1, 4} {
						for _, faultSeed := range []int64{0, 7} {
							if faultSeed != 0 && ranks == 1 {
								continue // a lone rank's death has no survivor to recover it
							}
							for _, files := range onOff {
								name := fmt.Sprintf("ranks=%d/shard=%v/ascii=%v/external=%v/workers=%d/fault=%d/files=%v",
									ranks, shard, ascii, external, workers, faultSeed, files)
								t.Run(name, func(t *testing.T) {
									cfg := base
									cfg.Ranks = ranks
									cfg.ShardKmers = shard
									cfg.ASCIISeq = ascii
									cfg.TailWorkers = workers
									cfg.FaultSeed = faultSeed
									if external {
										cfg.External = ExternalConfig{Enabled: true, TmpDir: t.TempDir(), Partitions: 4}
									}
									if files {
										art, err := RunFiles(readsPath, t.TempDir(), cfg)
										if err != nil {
											t.Fatal(err)
										}
										if got := readFile(t, art.Transcripts); !bytes.Equal(got, golden) {
											t.Fatalf("transcripts.fa differs from the golden (%d vs %d bytes)", len(got), len(golden))
										}
										return
									}
									res, err := Run(d.Reads, cfg)
									if err != nil {
										t.Fatal(err)
									}
									if got := transcriptsFasta(t, res); !bytes.Equal(got, golden) {
										t.Fatalf("transcripts differ from the golden (%d vs %d bytes)", len(got), len(golden))
									}
									// Not a second output check: it keeps the point honest
									// about what it drove.
									tiles := 0
									for _, p := range res.R2T.Profiles {
										tiles = max(tiles, len(p.Overlap))
									}
									if shard && tiles < 2 {
										t.Errorf("sharded ReadsToTranscripts ran %d fetch tile(s), want several", tiles)
									}
								})
							}
						}
					}
				}
			}
		}
	}
}
