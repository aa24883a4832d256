package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfknow/internal/perfdmf"
)

func perfdmfReadTrial(path string) (*perfdmf.Trial, error) { return perfdmf.ReadTrialFile(path) }

const testSource = `
program tdriver
proc main() {
    loop steps 5 {
        call body
    }
}
proc body() {
    parallel loop rows 32 schedule(dynamic,1) {
        compute fp=1000 int=300 loads=400 stores=100 dep=0.3 \
                region=g off=0 len=1048576 reuse=8 firsttouch
    }
}
`

func writeSource(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.uh")
	if err := os.WriteFile(path, []byte(testSource), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompileOnly(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-O", "O1", writeSource(t)}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "compiled tdriver at -O1") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestDumpAndReport(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-dump", "-report", writeSource(t)}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "parallel loop rows") {
		t.Fatalf("dump missing: %s", out.String())
	}
	if !strings.Contains(out.String(), "instrumented") {
		t.Fatalf("report missing: %s", out.String())
	}
}

func TestRunAndStore(t *testing.T) {
	repoDir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"-run", "-threads", "4", "-repo", repoDir, writeSource(t)}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "ran tdriver on 4 threads") {
		t.Fatalf("run line missing: %s", out.String())
	}
	if _, err := os.Stat(filepath.Join(repoDir, "tdriver", "uhcc", "4_-O2.json")); err != nil {
		t.Fatalf("trial not stored: %v", err)
	}
}

const imbalancedSource = `
program fb
proc main() {
    parallel loop rows 64 schedule(static) {
        compute fp=1000 int=200 dep=0.2
    }
}
`

func TestFeedbackFlag(t *testing.T) {
	srcPath := filepath.Join(t.TempDir(), "fb.uh")
	if err := os.WriteFile(srcPath, []byte(imbalancedSource), 0o644); err != nil {
		t.Fatal(err)
	}
	// First run: static schedule, stored in a repo.
	repoDir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "-threads", "4", "-repo", repoDir, srcPath}, &out, &errb); code != 0 {
		t.Fatalf("first run: %s", errb.String())
	}
	trialPath := filepath.Join(repoDir, "fb", "uhcc", "4_-O2.json")
	if _, err := os.Stat(trialPath); err != nil {
		t.Fatal(err)
	}
	// Doctor the stored trial so the loop looks imbalanced (the constant
	// per-iteration kernel is balanced by construction).
	doctorTrial(t, trialPath)

	// Second run with -feedback: the loop schedule must be retuned.
	out.Reset()
	if code := run([]string{"-feedback", trialPath, "-dump", srcPath}, &out, &errb); code != 0 {
		t.Fatalf("feedback run: %s", errb.String())
	}
	if !strings.Contains(out.String(), "schedule static -> dynamic,") {
		t.Fatalf("no schedule retune reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "schedule=dynamic,") {
		t.Fatalf("dump does not show the rewritten schedule:\n%s", out.String())
	}
	// Bad feedback file errors out.
	if code := run([]string{"-feedback", "/no/such.json", srcPath}, &out, &errb); code != 1 {
		t.Fatal("missing feedback file accepted")
	}
}

// doctorTrial rewrites the per-thread times of event "rows" to be strongly
// imbalanced.
func doctorTrial(t *testing.T, path string) {
	t.Helper()
	tr, err := perfdmfReadTrial(path)
	if err != nil {
		t.Fatal(err)
	}
	e := tr.Event("rows")
	if e == nil {
		t.Fatal("rows event missing from stored trial")
	}
	for th := 0; th < tr.Threads; th++ {
		f := float64(th + 1)
		e.Inclusive["TIME"][th] = 1000 * f
		e.Exclusive["TIME"][th] = 1000 * f
		e.Inclusive["CPU_CYCLES"][th] = 1.5e6 * f
		e.Exclusive["CPU_CYCLES"][th] = 1.5e6 * f
	}
	data, err := perfdmf.EncodeTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                                    // no source file
		{"-O", "O9", writeSource(t)},          // bad level
		{filepath.Join(t.TempDir(), "no.uh")}, // missing file
	}
	for i, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("case %d: exit 0 for %v", i, args)
		}
	}
	// Malformed source.
	bad := filepath.Join(t.TempDir(), "bad.uh")
	if err := os.WriteFile(bad, []byte("not a program"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{bad}, &out, &errb); code != 1 {
		t.Fatalf("malformed source: exit %d", code)
	}
}
