package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// resultSet is what one benchmark invocation over all workloads writes
// with -out, and what -compare reads.
type resultSet struct {
	Host      hostStamp         `json:"host"`
	Seed      int64             `json:"seed"`
	Workloads []*workloadResult `json:"workloads"`
}

// benchSpec is the part of BENCHMARK.json -compare judges by: each
// end-to-end metric's direction and the bound by which it may worsen.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// noisyCalibration is how far a run's calibration loop may drift between
// its start and its end before the run's wall numbers stop being
// evidence of a regression.
const noisyCalibration = 0.10

// noisy reports whether the host's speed moved during the run.
func (r *workloadResult) noisy() bool {
	before, after := r.PerLayer["host.calib_ms_before"].Value, r.PerLayer["host.calib_ms_after"].Value
	if before == 0 || after == 0 {
		return false // a run without the per-layer phase carries no calibration
	}
	return math.Abs(after-before)/math.Min(before, after) > noisyCalibration
}

func (r *workloadResult) failedFrac() float64 {
	return float64(r.Failed) / float64(r.Attempted)
}

// compareSets prints one row per workload and end-to-end metric, b
// against a, and reports whether b is acceptable: no metric worse than
// its bound and no workload with a higher share of failed assemblies.
func compareSets(w io.Writer, spec *benchSpec, a, b *resultSet) (ok bool) {
	ok = true
	kinds := map[string]byte{}
	for _, d := range perLayer {
		kinds[d.Name] = d.Kind
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tchange\tbound\tbetter\tverdict")
	for _, ra := range a.Workloads {
		var rb *workloadResult
		for _, r := range b.Workloads {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			fmt.Fprintf(tw, "%s\t(missing from the new set)\t\t\t\t\t\t%s\n", ra.Workload, verdictWorse)
			ok = false
			continue
		}
		noisy := ra.noisy() || rb.noisy()
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			higher := m.Better == "higher"
			v := verdict(va, vb, higher, m.Bound, noisy && wallMetrics[m.Name])
			if v == verdictWorse {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\t%s\n",
				ra.Workload, m.Name, va, vb, 100*(vb-va)/va, 100*m.Bound, m.Better, v)
		}
		fa, fb := ra.failedFrac(), rb.failedFrac()
		v := verdictSame
		if fb > fa {
			v, ok = verdictWorse, false
		} else if fb < fa {
			v = verdictBetter
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.6g\t%.6g\t\t0%%\tlower\t%s\n", ra.Workload, fa, fb, v)

		// Exact counts are not judged: a change may alter the work done.
		// They are listed so that one that was not meant to is seen.
		differ := 0
		for _, name := range sortedNames(ra.PerLayer) {
			if kinds[name] == 'c' && ra.PerLayer[name].Value != rb.PerLayer[name].Value {
				differ++
				fmt.Fprintf(tw, "%s\t%s\t%.10g\t%.10g\t\t\t\tcount differs\n",
					ra.Workload, name, ra.PerLayer[name].Value, rb.PerLayer[name].Value)
			}
		}
		note := fmt.Sprintf("%d exact counts differ", differ)
		if noisy {
			note += "; noisy: calibration drifted, wall metrics beyond their bound are unresolved"
		}
		fmt.Fprintf(tw, "%s\t(%s)\t\t\t\t\t\t\n", ra.Workload, note)
	}
	tw.Flush()
	return ok
}

// spreadTable prints, per workload and end-to-end metric, the median
// over runs made on different seeds and their spread beside the metric's
// bound. It reports whether every spread stays within its bound, which
// a bound must, and marks the ones above a third of it, which it should
// not be. setup_s is listed and not judged: several set-ups in a run and
// the largest bound are what steady it.
func spreadTable(w io.Writer, spec *benchSpec, runs []*workloadResult) (ok bool) {
	ok = true
	byWorkload := map[string][]*workloadResult{}
	var order []string
	for _, r := range runs {
		if byWorkload[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\tmedian\tspread\tbound\t")
	for _, name := range order {
		rs := byWorkload[name]
		if len(rs) < 2 {
			fmt.Fprintf(tw, "%s\t(one run has no spread)\t\t\t\t\t\n", name)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			xs := make([]float64, len(rs))
			for i, r := range rs {
				xs[i] = r.EndToEnd[m.Name].Value
			}
			sp, note := spread(xs), ""
			switch {
			case m.Name == "setup_s":
				note = "not judged"
			case sp > m.Bound:
				note, ok = "BEYOND THE BOUND", false
			case sp > m.Bound/3:
				note = "above a third of the bound"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.2f%%\t%.0f%%\t%s\n", name, m.Name, len(rs), median(xs), 100*sp, 100*m.Bound, note)
		}
	}
	tw.Flush()
	return ok
}
