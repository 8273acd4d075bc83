// Command e2e is the repository's benchmark: one program that drives the
// stack the way its two kinds of user do — library callers through
// internal/lagraph, service callers through a spawned lagraphd over
// loopback — checks every answer, and prints the metrics BENCHMARK.json
// names. README.md in this directory says what each workload and metric is
// for.
//
//	go run -C bench/e2e . -workload rmat -seed 1 -seconds 55 -trace 0
//	go run -C bench/e2e . -workload grid -seed 1 -seconds 55 -trace 1
//	go run -C bench/e2e . -aa 5 -seconds 55
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
)

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]measurement

func (m metrics) set(name string, v float64, unit string) { m[name] = measurement{v, unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// benchmarkFile is BENCHMARK.json as far as this program reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricSpec                 `json:"end_to_end"`
	PerLayer  []metricSpec                 `json:"per_layer"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: rmat or grid")
	seed := flag.Int64("seed", 1, "seed for sources, query order and written tuples")
	runSeconds := flag.Float64("seconds", 55, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer trace pass")
	aa := flag.Int("aa", 0, "A/A mode: run every workload N times and print each metric's spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 || *runSeconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2e: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	// Children and temporary directories go on every exit path, SIGINT
	// included.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop() // a second signal kills the process outright
		e.cleanup()
		os.Exit(130)
	}()
	code := 0
	if *aa > 0 {
		code = runAA(e, *aa, *seed, *runSeconds)
	} else {
		code = runOne(e, *workloadName, *seed, *runSeconds, *trace == 1)
	}
	e.cleanup()
	os.Exit(code)
}

func runOne(e *env, name string, seed int64, runSeconds float64, trace bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", name)
		return 2
	}
	printEnvironment(os.Stderr)
	res, err := run(e, w, seed, runSeconds, trace, false, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printEnvironment(w io.Writer) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "environment: num_cpu=%d GOMAXPROCS=%d %s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// selectMetrics keeps exactly the metrics specs names, in their units; a
// metric the run did not produce is an error, never a silent gap.
func selectMetrics(all metrics, specs []metricSpec) (metrics, error) {
	out := metrics{}
	for _, s := range specs {
		v, ok := all[s.Name]
		if !ok {
			return nil, fmt.Errorf("run produced no %s", s.Name)
		}
		if v.Unit != s.Unit {
			return nil, fmt.Errorf("%s measured in %s, declared in %s", s.Name, v.Unit, s.Unit)
		}
		out[s.Name] = v
	}
	return out, nil
}
