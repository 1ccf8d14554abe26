// Command e2e is the repository's benchmark: whole assemblies timed from
// outside with tracing off, then one traced staged replay that
// attributes the time to the layers under internal/. It is a closed
// loop with one client — one assembly at a time, as a batch assembler is
// used — and reports only wall-clock numbers and exact counts, nothing
// from a cost model. See ../README.md.
//
//	e2e [-seed n] [-repeats n] [-out set.json]       every workload, each in its own process
//	e2e -workload deep [-seconds s] [-trace 0|1]     one workload; last stdout line is the result
//	e2e -compare base.json new.json                  judge new against base by BENCHMARK.json's bounds
//	e2e -spread run1.json run2.json ...              run-to-run spread of -workload -out files against the bounds
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"text/tabwriter"
)

func main() {
	// Pinned so a result does not depend on how many cores the host
	// happens to expose beyond four.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload in this process (default: every workload, each in its own process)")
	seed := fs.Int64("seed", 1, "the inputs are generated from this seed")
	repeats := fs.Int("repeats", 7, "timed assemblies per workload, when -seconds is 0")
	seconds := fs.Float64("seconds", 0, "take timed assemblies for this long instead of -repeats")
	trace := fs.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	outPath := fs.String("out", "", "write the result as JSON here")
	traceOut := fs.String("trace-out", "", "write <workload>.trace.json (Chrome trace format) into this directory")
	tmpBase := fs.String("tmp", "", "make the run's temp root under this directory (default the system's)")
	compare := fs.Bool("compare", false, "compare two result sets: -compare base.json new.json")
	spreadOf := fs.Bool("spread", false, "spread of each metric over runs on different seeds: -spread run1.json run2.json ...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}

	if *compare || *spreadOf {
		// Both judge by the bounds in BENCHMARK.json, found where run.sh
		// runs the benchmark: at the repository root.
		var spec benchSpec
		if err := readJSON("BENCHMARK.json", &spec); err != nil {
			return fail(err)
		}
		ok := false
		if *compare {
			if fs.NArg() != 2 {
				return fail(errors.New("-compare takes two result sets: base.json new.json"))
			}
			var a, b resultSet
			if err := errors.Join(readJSON(fs.Arg(0), &a), readJSON(fs.Arg(1), &b)); err != nil {
				return fail(err)
			}
			ok = compareSets(stdout, &spec, &a, &b)
		} else {
			runs := make([]*workloadResult, fs.NArg())
			for i, path := range fs.Args() {
				if err := readJSON(path, &runs[i]); err != nil {
					return fail(err)
				}
			}
			ok = spreadTable(stdout, &spec, runs)
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		return fail(fmt.Errorf("-trace takes 0 or 1, not %q", *trace))
	}

	opt := runOptions{
		seed: *seed, repeats: *repeats, seconds: *seconds,
		endToEnd: *trace != "1", layers: *trace != "0",
		tmpBase: *tmpBase, traceOut: *traceOut,
	}
	if *name == "" {
		ok, err := runAll(stdout, stderr, opt, *outPath)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("no workload %q", *name))
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		return fail(err)
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, res); err != nil {
			return fail(err)
		}
	}
	printResult(stdout, res)
	if err := printContractLine(stdout, res); err != nil {
		return fail(err)
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runAll runs every workload, re-executing this binary once per
// workload so that peak_rss_mb belongs to one workload, and gathers the
// results into one set. ok is false when an assembly failed.
func runAll(stdout, stderr io.Writer, opt runOptions, outPath string) (ok bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(cmp.Or(opt.tmpBase, os.TempDir()), 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(opt.tmpBase, "bench-e2e-set-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	set := resultSet{Host: stampHost(), Seed: opt.seed}
	ok = true
	for _, w := range workloads {
		part := filepath.Join(dir, w.Name+".json")
		args := []string{
			"-workload", w.Name, "-seed", strconv.FormatInt(opt.seed, 10),
			"-repeats", strconv.Itoa(opt.repeats), "-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
			"-out", part, "-trace-out", opt.traceOut, "-tmp", opt.tmpBase,
		}
		switch {
		case !opt.layers:
			args = append(args, "-trace", "0")
		case !opt.endToEnd:
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run() // waits for the child; exit 1 means a failed assembly
		var res workloadResult
		if err := readJSON(part, &res); err != nil {
			return false, fmt.Errorf("workload %s: %w", w.Name, errors.Join(runErr, err))
		}
		set.Workloads = append(set.Workloads, &res)
		ok = ok && runErr == nil && res.Failed == 0
	}
	if outPath != "" {
		if err := writeJSON(outPath, &set); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func printResult(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "workload %s  seed %d  %s  NumCPU %d  GOMAXPROCS %d  %s  commit %s\n",
		res.Workload, res.Seed, res.Host.CPUModel, res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.Commit)
	fmt.Fprintf(w, "input    %d reads, %d bases; truth %d isoforms, %d bases; last-level cache %d bytes\n",
		res.Inputs.Reads, res.Inputs.ReadBases, res.Inputs.RefIsoforms, res.Inputs.RefBases, res.Host.LLCBytes)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, group := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		for _, name := range sortedNames(group) {
			m := group[name]
			if m.N > 0 {
				fmt.Fprintf(tw, "%s\t%.6g\t%s\tmedian of n=%d, min %.6g, max %.6g\n", name, m.Value, m.Unit, m.N, m.Min, m.Max)
			} else {
				fmt.Fprintf(tw, "%s\t%.6g\t%s\t\n", name, m.Value, m.Unit)
			}
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "assemblies attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}

// printContractLine prints the one-line JSON result the benchmark
// driver reads: whether the outputs were correct, assemblies attempted
// and failed, and every metric of the phases that ran.
func printContractLine(w io.Writer, res *workloadResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	all := map[string]value{}
	for _, group := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		for name, m := range group {
			all[name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   all,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
