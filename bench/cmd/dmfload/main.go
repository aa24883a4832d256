// Command dmfload is the service benchmark: it boots perfdmfd in process
// the way cmd/perfdmfd wires it, drives seeded workloads at it through
// dmfclient and cluster.Dial, checks every output against an in-process
// oracle and prints every metric by name with its unit.
//
//	dmfload                              all workloads, untraced
//	dmfload -workload W -seed N -seconds S -trace 0|1|FILE
//	dmfload -runs N -out SET.json        a set: N runs of every workload
//	dmfload -runs N -record FILE         the set plus one traced run of each
//	                                     workload, as one baseline file
//	dmfload -compare A.json B.json       two sets under BENCHMARK.json's bounds
//
// Run it from the repository root. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"perfknow/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Int64("seed", 1, "seed for inputs, key choice, op order and arrival schedule")
		seconds  = flag.Float64("seconds", 0, "timed seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; FILE: traced run, spans written to FILE")
		runs     = flag.Int("runs", 0, "produce a set: this many untraced runs of each workload, written to -out")
		out      = flag.String("out", "", "with -runs, the set file to write")
		record   = flag.String("record", "", "with -runs, also run every workload traced and write set and traced reports to this baseline file")
		compare  = flag.Bool("compare", false, "compare the two set files given as arguments")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition (metric directions and bounds)")
		workDir  = flag.String("workdir", ".bench_build/dmfload", "directory for data dirs; must be inside the checkout")
		sample   = flag.Int("sample", 0, "ops of each kind the traced run replays (default: per workload)")
	)
	flag.Parse()
	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two set files"))
		}
		a, err := bench.ReadSet(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := bench.ReadSet(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		regressed, unresolved := bench.Compare(spec, a, b, os.Stdout)
		fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
		if regressed+unresolved > 0 {
			return 1
		}
		return 0
	}

	opt := bench.Options{Seed: *seed, Seconds: *seconds, WorkDir: *workDir, Sample: *sample}
	if opt.Seconds == 0 {
		opt.Seconds = float64(spec.RunSeconds)
	}
	switch *trace {
	case "", "0":
	case "1":
		opt.Trace = true
	default:
		opt.Trace, opt.TraceOut = true, *trace
	}
	names := bench.Workloads()
	if *workload != "" {
		names = []string{*workload}
	}
	if *runs > 0 {
		if *out == "" && *record == "" {
			return fail(fmt.Errorf("-runs needs -out or -record"))
		}
		set, err := bench.RunSet(opt, names, *runs, os.Stderr)
		if err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := bench.WriteJSON(*out, set); err != nil {
				return fail(err)
			}
		}
		if *record != "" {
			base := bench.Baseline{Untraced: set}
			for _, name := range names {
				opt.Workload, opt.Trace = name, true
				rep, err := bench.Run(opt)
				if err != nil {
					return fail(fmt.Errorf("%s traced: %w", name, err))
				}
				printReport(rep)
				base.Traced = append(base.Traced, rep)
			}
			if err := bench.WriteJSON(*record, &base); err != nil {
				return fail(err)
			}
		}
		return 0
	}

	code := 0
	for _, name := range names {
		opt.Workload = name
		rep, err := bench.Run(opt)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		printReport(rep)
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dmfload:", err)
	return 2
}

// printReport prints every metric by name with its unit, then the result
// line: one JSON object with exactly correct, attempted, failed, metrics.
func printReport(rep *bench.Report) {
	kind := "untraced"
	if rep.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s (seed %d, %gs, %s) ops_attempted %d ops_failed %d ops_failed_pct %.4f %%\n",
		rep.Workload, rep.Seed, rep.Seconds, kind, rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(max(rep.Attempted, 1))*100)
	printMetrics := func(ms map[string]bench.Metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-34s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
		}
	}
	printMetrics(rep.Metrics)
	if len(rep.Health) > 0 {
		fmt.Println("  -- harness health and tails (ungated)")
		printMetrics(rep.Health)
	}
	if len(rep.Ledger) > 0 {
		fmt.Println("  -- where a request's time goes (ms, p50 per layer along the blocking path)")
		ops := make([]string, 0, len(rep.Ledger))
		for op := range rep.Ledger {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			row := rep.Ledger[op]
			layers := make([]string, 0, len(row))
			for layer := range row {
				layers = append(layers, layer)
			}
			sort.Strings(layers)
			fmt.Printf("  %-9s", op)
			for _, layer := range layers {
				fmt.Printf(" %s=%.3f", layer, row[layer])
			}
			fmt.Println()
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "dmfload:", rep.Workload+":", e)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	fmt.Println(string(line))
}
