// Command uhcc is the OpenUH-style compiler driver: it parses a program in
// the UH source language, runs the optimization pipeline for the requested
// level, inserts instrumentation (with selective-instrumentation scoring),
// and optionally executes the program on the simulated Altix, storing the
// resulting TAU-style profile in a repository — the left half of the Fig. 3
// tool-integration pipeline.
//
// Usage:
//
//	uhcc [-O level] [-dump] [-report] [-run] [-threads N] [-nodes N]
//	     [-repo DIR] [-app NAME] [-experiment NAME] [-trial NAME] file.uh
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"perfknow/internal/machine"
	"perfknow/internal/openuh"
	"perfknow/internal/perfdmf"
	"perfknow/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments and streams, for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uhcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		optLevel   = fs.String("O", "O2", "optimization level: O0..O3")
		dump       = fs.Bool("dump", false, "dump the (instrumented) IR")
		report     = fs.Bool("report", false, "print the selective-instrumentation scoring report")
		execute    = fs.Bool("run", false, "execute the program on the simulated machine")
		threads    = fs.Int("threads", 4, "threads for execution")
		nodes      = fs.Int("nodes", 8, "machine nodes (2 CPUs each)")
		repoDir    = fs.String("repo", "", "store the run's profile in this repository")
		app        = fs.String("app", "", "application name for the stored trial (default: program name)")
		experiment = fs.String("experiment", "uhcc", "experiment name for the stored trial")
		trialName  = fs.String("trial", "", "trial name (default: <threads>_<level>)")
		loops      = fs.Bool("instrument-loops", true, "instrument loops")
		procs      = fs.Bool("instrument-procedures", true, "instrument procedures")
		callsites  = fs.Bool("instrument-callsites", false, "instrument callsites")
		selective  = fs.Bool("selective", true, "apply selective-instrumentation scoring")
		feedback   = fs.String("feedback", "", "stored trial file from a previous run (-repo writes one): retune schedules, inlining and cost models before compiling")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "uhcc: exactly one source file expected")
		fs.Usage()
		return 2
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	prog, err := openuh.ParseSource(string(src))
	if err != nil {
		return fail(stderr, err)
	}
	level, err := openuh.ParseOptLevel(*optLevel)
	if err != nil {
		return fail(stderr, err)
	}

	inst := openuh.DefaultInstrumentation()
	inst.Loops = *loops
	inst.Procedures = *procs
	inst.Callsites = *callsites
	inst.Selective = *selective

	// Feedback-directed recompilation: fold a previous run's profile back
	// into the schedules, the inliner, and the cost models (Fig. 3's loop).
	cm := openuh.DefaultCostModel()
	if *feedback != "" {
		trial, err := perfdmf.ReadTrialFile(*feedback)
		if err != nil {
			return fail(stderr, err)
		}
		if err := cm.ApplyFeedback(trial); err != nil {
			fmt.Fprintf(stdout, "uhcc: feedback: cost model not updated: %v\n", err)
		}
		for _, c := range openuh.TuneParallelLoops(prog, trial, &cm, 0) {
			fmt.Fprintf(stdout, "uhcc: feedback: loop %s schedule %s -> %s (imbalance %.2f)\n",
				c.Loop, c.Old, c.New, c.Ratio)
		}
		if n := openuh.TuneInlining(prog, trial, 1000, 5000); n > 0 {
			fmt.Fprintf(stdout, "uhcc: feedback: inlined %d hot call site(s)\n", n)
		}
	}

	ex, scores, err := openuh.Compile(prog, level, inst, &cm)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "uhcc: compiled %s at %s (%d passes: %s)\n",
		prog.Name, level, len(ex.CG.Applied), strings.Join(ex.CG.Applied, ", "))

	if *report {
		fmt.Fprint(stdout, openuh.SummarizeScores(scores))
	}
	if *dump {
		fmt.Fprint(stdout, prog.Dump())
	}
	if !*execute {
		return 0
	}

	m := machine.New(machine.Altix(*nodes, 2))
	eng := sim.NewEngine(m, sim.Options{Threads: *threads, CallpathDepth: 3})
	appName := *app
	if appName == "" {
		appName = prog.Name
	}
	tn := *trialName
	if tn == "" {
		tn = fmt.Sprintf("%d_%s", *threads, level)
	}
	trial, err := ex.Run(eng, appName, *experiment, tn)
	if err != nil {
		return fail(stderr, err)
	}
	if main := trial.MainEvent(perfdmf.TimeMetric); main != nil {
		fmt.Fprintf(stdout, "uhcc: ran %s on %d threads: %s = %.3f ms\n",
			prog.Name, *threads, main.Name, perfdmf.Mean(main.Inclusive[perfdmf.TimeMetric])/1e3)
	}
	if *repoDir != "" {
		repo, err := perfdmf.OpenRepository(*repoDir)
		if err != nil {
			return fail(stderr, err)
		}
		if err := repo.Save(trial); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "uhcc: stored trial %s/%s/%s under %s\n",
			appName, *experiment, tn, filepath.Clean(*repoDir))
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "uhcc:", err)
	return 1
}
