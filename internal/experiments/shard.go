package experiments

import (
	"fmt"
	"io"
	"reflect"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/mpi"
)

// Sharded-memory study. The paper's future work (§VI) targets the
// per-node memory of the MPI Chrysalis — every rank replicates the
// full read k-mer table and both weld indexes. ShardScaling measures
// the trade the ShardKmers distributed hash table makes: per-rank
// resident k-mer state shrinks roughly like 2/R (the rank's 1/R shard
// plus the ~1/R partial replica its welding loops fetch) in exchange
// for batched lookup traffic, with output verified identical to the
// replicated run at every rank count. Sharded runs fetch through the
// double-buffered tile pipeline, so the rows also report how much of
// the fetch wall-time the overlap hid under compute, and
// the same trade for the sharded ReadsToTranscripts bundle tables.

// ShardRow compares the replicated and sharded paths at one rank
// count.
type ShardRow struct {
	Ranks             int
	ReplicatedBytes   int64   // per-rank resident k-mer state, replicated GFF
	ShardedMaxBytes   int64   // worst rank, sharded GFF
	ShardedMeanBytes  int64   // mean rank, sharded GFF
	ExchangeBytes     int64   // addressed lookup-round bytes, summed over ranks
	ResidentReduction float64 // ReplicatedBytes / ShardedMeanBytes

	// Overlap efficiency of the tile pipeline under the Blue Wonder
	// model: of the seconds the lookup rounds would cost serially,
	// the fraction paid under compute (tile t+1's fetch runs while
	// tile t computes). Zero at one rank — a lone rank answers itself.
	OverlapHiddenSec  float64
	OverlapTotalSec   float64
	OverlapHiddenFrac float64

	// ReadsToTranscripts bundle-table residency, replicated vs sharded.
	R2TReplicatedBytes  int64
	R2TShardedMeanBytes int64
	R2TReduction        float64
}

// ShardScaling runs GraphFromFasta and ReadsToTranscripts with and
// without ShardKmers over the given rank counts, verifies the outputs
// are identical, and reports the memory-vs-traffic trade plus the
// overlap pipeline's hidden fetch time.
func ShardScaling(l *Lab, rankCounts []int) ([]ShardRow, error) {
	if len(rankCounts) == 0 {
		rankCounts = []int{1, 4, 16}
	}
	p, err := l.Sugarbeet()
	if err != nil {
		return nil, err
	}
	rows := make([]ShardRow, 0, len(rankCounts))
	for _, ranks := range rankCounts {
		opt := chrysalis.GFFOptions{K: l.K, ThreadsPerRank: threadsPerNode}
		base, err := chrysalis.GraphFromFasta(p.contigs, p.table, ranks, opt)
		if err != nil {
			return nil, err
		}
		opt.ShardKmers = true
		l.logf("shard: GraphFromFasta with %d ranks, sharded k-mer state...", ranks)
		res, err := chrysalis.GraphFromFasta(p.contigs, p.table, ranks, opt)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(res.Components, base.Components) || !reflect.DeepEqual(res.Welds, base.Welds) {
			return nil, fmt.Errorf("experiments: sharded output diverged at %d ranks", ranks)
		}
		row := ShardRow{Ranks: ranks, ReplicatedBytes: base.Profiles[0].ResidentKmerBytes}
		cfg := l.bwConfig(ranks, p.dataset)
		comm := func(s mpi.Stats) float64 { return cfg.CommTime(s) }
		work := func(units float64) float64 { return cfg.WorkTime(units / threadsPerNode) }
		var sum int64
		for _, prof := range res.Profiles {
			if prof.ResidentKmerBytes > row.ShardedMaxBytes {
				row.ShardedMaxBytes = prof.ResidentKmerBytes
			}
			sum += prof.ResidentKmerBytes
			row.ExchangeBytes += prof.ShardExchangeBytes
			for _, meters := range [][]chrysalis.TileMeter{prof.Overlap1, prof.Overlap2} {
				h, t := chrysalis.OverlapHiddenSeconds(meters, comm, work)
				row.OverlapHiddenSec += h
				row.OverlapTotalSec += t
			}
		}
		row.ShardedMeanBytes = sum / int64(ranks)
		if row.ShardedMeanBytes > 0 {
			row.ResidentReduction = float64(row.ReplicatedBytes) / float64(row.ShardedMeanBytes)
		}
		if row.OverlapTotalSec > 0 {
			row.OverlapHiddenFrac = row.OverlapHiddenSec / row.OverlapTotalSec
		}

		// The same trade for the R2T bundle tables, over the real read
		// set against the components GFF just produced.
		r2tOpt := chrysalis.R2TOptions{K: l.K, ThreadsPerRank: threadsPerNode}
		r2tBase, err := chrysalis.ReadsToTranscripts(p.dataset.Reads, p.contigs, base.Components, ranks, r2tOpt)
		if err != nil {
			return nil, err
		}
		r2tOpt.ShardKmers = true
		l.logf("shard: ReadsToTranscripts with %d ranks, sharded bundle table...", ranks)
		r2tRes, err := chrysalis.ReadsToTranscripts(p.dataset.Reads, p.contigs, base.Components, ranks, r2tOpt)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(r2tRes.Assignments, r2tBase.Assignments) {
			return nil, fmt.Errorf("experiments: sharded r2t output diverged at %d ranks", ranks)
		}
		row.R2TReplicatedBytes = r2tBase.Profiles[0].ResidentKmerBytes
		var r2tSum int64
		for _, prof := range r2tRes.Profiles {
			r2tSum += prof.ResidentKmerBytes
		}
		row.R2TShardedMeanBytes = r2tSum / int64(ranks)
		if row.R2TShardedMeanBytes > 0 {
			row.R2TReduction = float64(row.R2TReplicatedBytes) / float64(row.R2TShardedMeanBytes)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteShardTable renders the rows as the EXPERIMENTS.md table.
func WriteShardTable(w io.Writer, rows []ShardRow) {
	fmt.Fprintln(w, "| ranks | replicated B/rank | sharded max B/rank | sharded mean B/rank | reduction | exchange B | fetch hidden | r2t replicated B | r2t sharded mean B | r2t reduction |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %d | %d | %d | %d | %.2fx | %d | %.0f%% | %d | %d | %.2fx |\n",
			r.Ranks, r.ReplicatedBytes, r.ShardedMaxBytes, r.ShardedMeanBytes, r.ResidentReduction,
			r.ExchangeBytes, 100*r.OverlapHiddenFrac, r.R2TReplicatedBytes, r.R2TShardedMeanBytes, r.R2TReduction)
	}
}
