package chrysalis

import "gotrinity/internal/cluster"

// Replication-based timing.
//
// The scaled dataset has a few hundred contigs while the paper's
// sugarbeet run has millions, so at high rank counts a naive makespan
// would be floored by single large items — an artifact of the scale
// substitution, not of the algorithm. To evaluate timings at
// paper-scale granularity, the real per-item costs are measured once
// and the chunked round-robin stream is then *replayed* R times (as if
// the dataset contained R statistical copies of the item population);
// the resulting makespan is divided by R. Total work is unchanged, so
// calibration is unaffected; only the granularity of the distribution
// matches paper scale. R=1 reproduces the raw scaled-data makespan.

// replicatedMakespan replays the replicated chunk stream for one rank
// and returns its per-thread makespan in (unreplicated) units plus the
// thread-level load imbalance (max/min, the paper's measure). The
// distribution's Strategy decides chunk ownership; staticSched selects
// the OpenMP static schedule instead of dynamic (for the ablation).
// With a scan cost (ReadsToTranscripts' redundant streaming, §III-C)
// the chunks the rank does not own charge scan(i) per item to the
// returned stream total, normalised by the replica count like the
// makespan.
func replicatedMakespan(d Distribution, costs []float64, scan func(i int) float64,
	rank, replicas, threads int, staticSched bool) (makespan, imbalance, stream float64) {
	if replicas < 1 {
		replicas = 1
	}
	sim := cluster.NewThreadSim(threads)
	chunks := d.Chunks()
	g := 0 // global chunk ordinal across replicas (round-robin key)
	for rep := 0; rep < replicas; rep++ {
		for c := 0; c < chunks; c++ {
			owner := d.Owner(c)
			if d.Strategy == ChunkedRoundRobin {
				owner = g % d.Ranks
			}
			lo, hi := d.ChunkRange(c)
			if owner != rank {
				for i := lo; i < hi && scan != nil; i++ {
					stream += scan(i)
				}
			} else {
				for i := lo; i < hi; i++ {
					if staticSched {
						sim.AssignStatic(i-lo, hi-lo, costs[i])
					} else {
						sim.Assign(costs[i])
					}
				}
			}
			g++
		}
	}
	return sim.Makespan() / float64(replicas), sim.Imbalance(), stream / float64(replicas)
}
