// Command experiments regenerates every table and figure of the paper's
// evaluation section, printing paper-style rows and paper-vs-measured shape
// checks.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run F5b   # run experiments whose ID starts with F5b
//	experiments -list      # list experiment IDs
//	experiments -j 4       # run 4 experiments at a time (0 = GOMAXPROCS)
//	experiments -j 1       # one at a time, in order; output is byte-identical at any -j
package main

import (
	"flag"
	"fmt"
	"os"

	"perfknow/internal/experiments"
)

func main() {
	var (
		run  = flag.String("run", "", "run only experiments whose ID starts with this prefix")
		list = flag.Bool("list", false, "list experiment IDs and exit")
		jobs = flag.Int("j", 0, "experiments in flight, each one goroutine of simulation and analysis (0 = GOMAXPROCS, 1 = one at a time)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	results, err := experiments.RunAll(*run, *jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	for _, r := range results {
		fmt.Print(r.Format())
		fmt.Println()
	}
	fmt.Println(experiments.Summary(results))
	for _, r := range results {
		for _, c := range r.Checks {
			if !c.OK() {
				os.Exit(1)
			}
		}
	}
}
