// tracecheck validates a JSON trace produced by `lagraph run -trace`: it
// parses the document, checks the schema tag, and (optionally) asserts
// structural properties the CI smoke job relies on — per-iteration frontier
// sizes and at least one push→pull direction switch. Exit status 0 means
// the trace passed every requested check.
//
// Usage:
//
//	lagraph run -algo bfs -kind powerlaw -scale 12 -trace trace.json
//	tracecheck -in trace.json -algo bfs -want-switch
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"lagraph/internal/obs"
)

func main() {
	in := flag.String("in", "-", "trace file to validate (\"-\" = stdin)")
	algo := flag.String("algo", "", "restrict iteration checks to this algorithm's records")
	wantSwitch := flag.Bool("want-switch", false, "require at least one push→pull direction switch")
	minIters := flag.Int("min-iters", 1, "require at least this many iteration records")
	minOps := flag.Int("min-ops", 0, "require at least this many op records")
	flag.Parse()

	doc, err := readTrace(*in)
	if err != nil {
		fail("reading trace: %v", err)
	}
	if doc.Schema != obs.TraceSchema {
		fail("schema is %q, want %q", doc.Schema, obs.TraceSchema)
	}

	iters := doc.Iters
	if *algo != "" {
		iters = nil
		for _, r := range doc.Iters {
			if r.Algo == *algo {
				iters = append(iters, r)
			}
		}
	}
	if len(iters) < *minIters {
		fail("%d iteration records (algo %q), want at least %d", len(iters), *algo, *minIters)
	}
	if len(doc.Ops) < *minOps {
		fail("%d op records, want at least %d", len(doc.Ops), *minOps)
	}
	for _, r := range iters {
		if r.Iter <= 0 {
			fail("iteration record with non-positive iter %d (algo %s)", r.Iter, r.Algo)
		}
	}

	switched := false
	for k := 1; k < len(iters); k++ {
		if iters[k-1].Dir == "push" && iters[k].Dir == "pull" {
			switched = true
			break
		}
	}
	if *wantSwitch && !switched {
		fail("no push→pull switch in %d iteration records", len(iters))
	}

	fmt.Printf("trace ok: %d ops, %d iters", len(doc.Ops), len(iters))
	tagged := map[string]int{}
	for _, op := range doc.Ops {
		if op.Ops != "" {
			tagged[op.Ops]++
		}
	}
	if len(tagged) > 0 {
		fmt.Printf(", inline operators %v", tagged)
	}
	if doc.DroppedOps > 0 || doc.DroppedIters > 0 {
		fmt.Printf(" (ring dropped %d ops, %d iters)", doc.DroppedOps, doc.DroppedIters)
	}
	if switched {
		fmt.Printf(", push→pull switch present")
	}
	fmt.Println()
}

func readTrace(path string) (*obs.TraceDocument, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var doc obs.TraceDocument
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}
