package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// runAA is the A/A check: the same code against itself. It runs every
// workload n times, each time with another seed as the driver does, and
// prints per workload and metric the median, the extremes and their spread
// as a share of the median, flagging a spread over half the metric's bound
// as BENCHMARK.json gives it.
func runAA(e *env, n int, seed int64, runSeconds float64) int {
	printEnvironment(os.Stderr)
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	failed := false
	for i := 0; i < n; i++ {
		for wi := range workloads {
			w := &workloads[wi]
			res, err := run(e, w, seed+int64(i), runSeconds, false, false, io.Discard)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			failed = failed || !res.Correct
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s: attempted %d failed %d\n", i+1, n, w.name, res.Attempted, res.Failed)
		}
	}
	flagged := printAATable(os.Stdout, e.bf.EndToEnd, values)
	if failed || flagged > 0 {
		return 1
	}
	return 0
}

// printAATable writes the A/A table as Markdown and returns how many rows
// spread over half their bound.
func printAATable(w io.Writer, specs []metricSpec, values map[string]map[string][]float64) (flagged int) {
	fmt.Fprintln(w, "| workload | metric | unit | median | min | max | (max−min)/median | bound | |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, s := range specs {
			xs := append([]float64(nil), values[wl][s.Name]...)
			sort.Float64s(xs)
			med := quantile(xs, 0.5)
			spread := (xs[len(xs)-1] - xs[0]) / med
			mark := ""
			if spread > s.Bound/2 {
				mark = "over half the bound"
				flagged++
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.5g | %.5g | %.5g | %.3f | %.2f | %s |\n",
				wl, s.Name, s.Unit, med, xs[0], xs[len(xs)-1], spread, s.Bound, mark)
		}
	}
	return flagged
}
