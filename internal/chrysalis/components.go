package chrysalis

import (
	"fmt"

	"gotrinity/internal/dbg"
	"gotrinity/internal/omp"
	"gotrinity/internal/seq"
)

// ComponentGraph pairs a component with its de Bruijn graph and the
// reads assigned to it.
type ComponentGraph struct {
	Component Component
	Graph     *dbg.Graph
	Reads     []int32 // indices of reads ReadsToTranscripts assigned here
}

// groupAssignments groups the assigned read indices by component
// position, preserving assignment order — the per-component read order
// QuantifyGraph's single pass produces. Assignments to unknown
// components or out-of-range reads are dropped, matching QuantifyGraph.
func groupAssignments(comps []Component, assignments []Assignment, nreads int) [][]int32 {
	pos := make(map[int]int, len(comps))
	for i, comp := range comps {
		pos[comp.ID] = i
	}
	readsByComp := make([][]int32, len(comps))
	for _, a := range assignments {
		i, ok := pos[int(a.Component)]
		if !ok || int(a.Read) >= nreads {
			continue
		}
		readsByComp[i] = append(readsByComp[i], a.Read)
	}
	return readsByComp
}

// buildComponentGraph builds one component's de Bruijn graph from its
// contigs — the per-component unit of FastaToDeBruijn. The graph sees
// the contigs in component order, exactly as the serial path adds them.
func buildComponentGraph(contigs []seq.Record, comp Component, k int) (*ComponentGraph, error) {
	// Inchworm uses a k-mer once, so the contigs' bases bound their
	// nodes closely; reads then add only their error k-mers.
	bases := 0
	for _, ci := range comp.Contigs {
		if ci >= 0 && ci < len(contigs) {
			bases += len(contigs[ci].Seq)
		}
	}
	g, err := dbg.NewSized(k, bases)
	if err != nil {
		return nil, fmt.Errorf("chrysalis: component %d: %w", comp.ID, err)
	}
	for _, ci := range comp.Contigs {
		if ci < 0 || ci >= len(contigs) {
			return nil, fmt.Errorf("chrysalis: component %d references contig %d of %d",
				comp.ID, ci, len(contigs))
		}
		g.AddSequence(contigs[ci].Seq, 1)
	}
	return &ComponentGraph{Component: comp, Graph: g}, nil
}

// quantifyComponent threads the component's assigned reads (in
// assignment order) through its graph — the per-component unit of
// QuantifyGraph. Combined with buildComponentGraph it reproduces the
// exact AddSequence order of the serial composition: contigs first,
// then reads in assignment order.
func quantifyComponent(cg *ComponentGraph, reads []seq.Record, assigned []int32) {
	for _, ri := range assigned {
		cg.Graph.AddSequence(reads[ri].Seq, 1)
		cg.Reads = append(cg.Reads, ri)
	}
}

// FastaToDeBruijnParallel fuses Chrysalis's FastaToDeBruijn and
// QuantifyGraph sub-steps into one component-parallel phase: each component's graph is built from
// its contigs and quantified with its assigned reads by a bounded
// worker pool. Components are dispatched largest first (LPT order over
// contig plus assigned-read bases) under a dynamic schedule to tame the
// highly skewed component-size distribution, and every result lands in
// a pre-sized slice cell indexed by component position, so the output
// is identical to the serial FastaToDeBruijn + QuantifyGraph
// composition (kept as the test oracle) regardless of worker count or interleaving: per
// component, the graph sees the same AddSequence calls in the same
// order (contigs first, then reads in assignment order).
//
// The returned units slice holds each component's work weight (the LPT
// key), which doubles as the deterministic input of the tail makespan
// model, and the profile reports how the pool's threads loaded.
func FastaToDeBruijnParallel(contigs []seq.Record, comps []Component, k int,
	reads []seq.Record, assignments []Assignment, workers int) ([]*ComponentGraph, []float64, omp.Profile, error) {
	// Validate contig references up front so errors keep the serial
	// path's deterministic first-component-in-order reporting.
	for _, comp := range comps {
		for _, ci := range comp.Contigs {
			if ci < 0 || ci >= len(contigs) {
				return nil, nil, omp.Profile{}, fmt.Errorf("chrysalis: component %d references contig %d of %d",
					comp.ID, ci, len(contigs))
			}
		}
	}
	if _, err := dbg.New(k); err != nil {
		return nil, nil, omp.Profile{}, fmt.Errorf("chrysalis: %w", err)
	}
	readsByComp := groupAssignments(comps, assignments, len(reads))
	units := make([]float64, len(comps))
	for i, comp := range comps {
		for _, ci := range comp.Contigs {
			units[i] += float64(len(contigs[ci].Seq))
		}
		for _, ri := range readsByComp[i] {
			units[i] += float64(len(reads[ri].Seq))
		}
	}
	order := omp.LPTOrder(len(comps), func(i int) float64 { return units[i] })
	out := make([]*ComponentGraph, len(comps))
	prof := omp.ParallelForProfiled(len(comps), workers, omp.Schedule{Kind: omp.Dynamic},
		func(p, tid int) {
			i := order[p]
			cg, _ := buildComponentGraph(contigs, comps[i], k) // refs and k validated above
			quantifyComponent(cg, reads, readsByComp[i])
			out[i] = cg
		})
	return out, units, prof, nil
}
