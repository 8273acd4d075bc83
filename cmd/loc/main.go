// loc is a cloc-style line counter for the Table II reproduction: the
// paper compares lines of application code needed for BFS, single-source
// shortest path and local graph clustering across Ligra, GraphIt and
// GraphBLAS (GraphBLAST). This tool counts the non-blank, non-comment
// source lines of the corresponding functions in this repository's
// algorithm collection so the comparison can be regenerated from source.
//
//	go run ./cmd/loc [-dir internal/lagraph] [-files]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"lagraph/internal/loccount"
)

func main() {
	dir := flag.String("dir", "internal/lagraph", "directory of Go sources to analyze")
	perFile := flag.Bool("files", false, "also print per-file totals")
	flag.Parse()

	funcs, fileTotals, err := loccount.CountDir(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loc:", err)
		os.Exit(1)
	}
	byName := loccount.ByName(funcs)

	fmt.Println("Table II reproduction — lines of application code")
	fmt.Println()
	fmt.Printf("%-28s %7s %8s %11s %8s\n", "Algorithm", "Ligra", "GraphIt", "GraphBLAS", "lagraph-go")
	for _, r := range loccount.TableII {
		total := 0
		for _, fn := range r.Funcs {
			total += byName[fn]
		}
		fmt.Printf("%-28s %7s %8s %11d %8d\n", r.Alg, r.Ligra, r.GraphIt, r.GraphBLAS, total)
	}
	fmt.Println("\n(paper columns from Table II; lagraph-go counted from",
		*dir+" by this tool: non-blank, non-comment lines of the function body)")

	fmt.Println("\nPer-function counts:")
	sort.Slice(funcs, func(a, b int) bool { return funcs[a].Name < funcs[b].Name })
	for _, f := range funcs {
		fmt.Printf("  %-36s %4d  (%s)\n", f.Name, f.Lines, f.File)
	}

	if *perFile {
		fmt.Println("\nPer-file totals:")
		names := make([]string, 0, len(fileTotals))
		for n := range fileTotals {
			names = append(names, n)
		}
		sort.Strings(names)
		grand := 0
		for _, n := range names {
			fmt.Printf("  %-36s %5d\n", n, fileTotals[n])
			grand += fileTotals[n]
		}
		fmt.Printf("  %-36s %5d\n", "TOTAL", grand)
	}
}
