package main

import (
	"runtime"

	"gotrinity/internal/core"
	"gotrinity/internal/rnaseq"
)

// workload is one set of inputs and one way of using the assembler on
// them. The program under test receives only the generated reads.
type workload struct {
	Name string
	Why  string
	// Files drives core.RunFiles on reads.fa with external-memory
	// counting instead of core.Run on the in-memory reads.
	Files   bool
	Profile func() rnaseq.Profile
	// Ranks and ShardKmers are the hybrid Chrysalis settings.
	Ranks      int
	ShardKmers bool
}

// Two datasets, each used two ways, so every alternative use has a
// control on the same reads. Both start from the Sugarbeet preset
// (76 bp reads, sigma 1.5, 40 % paired, 0.5 % error). The sizes put one
// assembly at 1.5 to 2.5 s on a 2-core host, which is what lets a run
// take three set-ups and half a dozen timed samples inside the driver's
// time cap. The transcriptome of each is fixed (see transcriptomeSeed);
// the seed draws the reads.

// deepProfile: many reads over few isoforms (about 46x coverage), so
// the layers whose work follows the read count carry the run.
func deepProfile() rnaseq.Profile {
	p := rnaseq.Sugarbeet(transcriptomeSeed)
	p.Genes, p.LongGeneFrac, p.Reads = 75, 0, 80000
	return p
}

// wideProfile: few reads over many isoforms (about 2x coverage) with a
// heavy tail of long genes, so the layers whose work follows contigs,
// components and graph nodes carry the run: the paper's profile once
// Chrysalis is parallel.
func wideProfile() rnaseq.Profile {
	p := rnaseq.Sugarbeet(transcriptomeSeed)
	p.Genes, p.MaxIsoforms, p.LongGeneFrac, p.ExpressionSigma, p.Reads = 250, 6, 0.05, 0.8, 20000
	return p
}

var workloads = []workload{
	{
		Name:    "deep",
		Why:     "80k reads over 131 isoforms (46x), one rank: read-proportional layers (jellyfish, bowtie, R2T, quantify) carry it; an Inchworm or GFF gain should not move it",
		Profile: deepProfile, Ranks: 1,
	},
	{
		Name:    "wide",
		Why:     "20k reads over 508 isoforms (2x), one rank: contig- and graph-proportional layers (inchworm, GFF, butterfly) carry it; a Bowtie gain should not move it",
		Profile: wideProfile, Ranks: 1,
	},
	{
		Name:    "wide-hybrid",
		Why:     "the wide reads on 4 ranks with sharded k-mer tables: the MPI+OpenMP Chrysalis, shard rounds and traffic; control is wide on the same reads",
		Profile: wideProfile, Ranks: 4, ShardKmers: true,
	},
	{
		Name:    "deep-external",
		Why:     "the deep reads from reads.fa through RunFiles with disk-partitioned counting: every stage boundary is a file; control is deep on the same reads",
		Profile: deepProfile, Ranks: 1, Files: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// externalPartitions is dsk's partition count on the Files workloads.
const externalPartitions = 8

// config is the core.Config the workload runs under; tmpDir is where
// an external-memory run may spill.
func (w workload) config(seed int64, tmpDir string) core.Config {
	cfg := core.Config{
		Ranks:          w.Ranks,
		ShardKmers:     w.ShardKmers,
		Seed:           seed,
		ThreadsPerRank: max(1, runtime.GOMAXPROCS(0)/w.Ranks),
	}
	if w.Files {
		cfg.External = core.ExternalConfig{Enabled: true, Partitions: externalPartitions, TmpDir: tmpDir}
	}
	return cfg
}
