package diagnosis

// Tests over the script API's tables as a whole: every row declared by
// internal/script, internal/core and this package. Each row is called with
// too few and too many arguments and with an argument of the wrong kind,
// then once with valid arguments in a real session; docs/LANGUAGES.md is
// held to the rows in both directions.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"perfknow/internal/apps/genidlest"
	"perfknow/internal/core"
	"perfknow/internal/script"
)

// apiTables is every table of the shipped script API.
var apiTables = []*script.Module{
	script.Builtins, core.Functions, core.Utilities, core.MeanEventFact, core.Harness, core.TrialMembers, Functions,
}

// qualified is a row's name as the valid calls and the docs key it: the
// table's name, if it has one, then the row's.
func qualified(m *script.Module, s string) string {
	if m.Name == "" {
		return s
	}
	return m.Name + "." + s
}

// shortSig is the signature without kinds, the way call errors quote it.
func shortSig(b *script.Builtin) string {
	name, list, _ := strings.Cut(strings.TrimSuffix(b.Sig, ")"), "(")
	var ps []string
	for _, p := range strings.Split(list, ", ") {
		if pname, kind, ok := strings.Cut(p, " "); ok {
			switch {
			case strings.HasSuffix(kind, "..."):
				pname += "..."
			case strings.HasSuffix(kind, "?"):
				pname += "?"
			}
			ps = append(ps, pname)
		}
	}
	return name + "(" + strings.Join(ps, ", ") + ")"
}

func TestScriptAPICallChecks(t *testing.T) {
	rows := 0
	for _, m := range apiTables {
		for _, row := range m.Rows {
			if row.Prop {
				continue
			}
			rows++
			probe := *row
			entered := false
			probe.Impl = func(*script.Interp, script.Value, []script.Value) (script.Value, error) {
				entered = true
				return nil, nil
			}
			call := func(n int) error {
				in := script.New()
				in.SetGlobal("probe", &probe)
				return in.Run("probe(" + strings.TrimSuffix(strings.Repeat("nil, ", n), ", ") + ")")
			}
			short := shortSig(row)
			lo, hi := row.Min, row.Max
			var counts []int
			if lo > 0 {
				counts = append(counts, lo-1)
			}
			if hi >= 0 {
				counts = append(counts, hi+1)
			}
			for _, n := range counts {
				err := call(n)
				want := fmt.Sprintf("script: line 1: %s expects ", short)
				if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.HasSuffix(err.Error(), fmt.Sprintf(", got %d", n)) {
					t.Errorf("%s with %d arguments: error %v, want %q…, got %d", qualified(m, row.Name), n, err, want, n)
				}
			}
			for i, p := range row.Params {
				if p.Kind.Name == "any" {
					continue
				}
				err := call(max(lo, i+1))
				want := fmt.Sprintf("script: line 1: %s: %s: want ", short, p.Name)
				if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.HasSuffix(err.Error(), ", got nil") {
					t.Errorf("%s with nil for %s: error %v, want %q…", qualified(m, row.Name), p.Name, err, want)
				}
				break
			}
			if entered {
				t.Errorf("%s: the implementation ran on arguments its declaration rejects", qualified(m, row.Name))
			}
		}
	}
	if rows < 50 {
		t.Fatalf("only %d callable rows in the tables", rows)
	}

	err := core.NewSession(nil).RunScript("\n" + `Utilities.getTrial("a", "b")`)
	if want := "script: line 2: getTrial(app, experiment, trial) expects 3 arguments, got 2"; err == nil || err.Error() != want {
		t.Errorf("getTrial with 2 arguments: %v, want %q", err, want)
	}
}

// validCalls calls every row once with valid arguments, keyed by the row's
// qualified name. The setup binds trial to a stored GenIDLEST trial and ev
// to its main event.
var validCalls = map[string]string{
	"print": `print(1, "a")`, "len": `len([1])`, "range": `range(2, 4)`, "append": `append([1], 2, 3)`,
	"keys": `keys({"a": 1})`, "str": `str(1)`, "num": `num("2")`, "abs": `abs(-1)`, "sqrt": `sqrt(4)`,
	"sorted": `sorted([2, 1])`, "min": `min(2, 1)`, "max": `max([2, 1])`, "format": `format("%v", 1)`,

	"TrialMeanResult": `TrialMeanResult(trial)`, "TrialTotalResult": `TrialTotalResult(trial)`,
	"TrialMaxResult": `TrialMaxResult(trial)`, "DeriveMetric": `DeriveMetric(trial, "CPU_CYCLES", "TIME", "/")`,
	"DeriveMetricName": `DeriveMetricName("A", "B", "*")`, "RuleHarness": `RuleHarness("OpenUHRules.prl")`,
	"RuleHarnessFromSource": `RuleHarnessFromSource('rule "r" when f : T ( v : v > 1 ) then println(v) end')`, "assertFact": `assertFact("T", {"v": 1})`,
	"LoadBalanceFacts": `LoadBalanceFacts(trial, "TIME")`,

	"Utilities.getTrial": `Utilities.getTrial(args[0], args[1], args[2])`, "Utilities.applications": `Utilities.applications()`,
	"Utilities.experiments": `Utilities.experiments(args[0])`, "Utilities.trials": `Utilities.trials(args[0], args[1])`,
	"Utilities.saveTrial":              `Utilities.saveTrial(trial)`,
	"MeanEventFact.compareEventToMain": `MeanEventFact.compareEventToMain(trial, "TIME", ev)`,
	"RuleHarness.processRules":         `RuleHarness().processRules()`,
	"RuleHarness.reset":                `RuleHarness().reset()`,
	"Trial.name":                       `trial.name`,
	"Trial.application":                `trial.application`,
	"Trial.experiment":                 `trial.experiment`,
	"Trial.threads":                    `trial.threads`,
	"Trial.events":                     `trial.events`,
	"Trial.metrics":                    `trial.metrics`,
	"Trial.mainEvent":                  `trial.mainEvent`,
	"Trial.metadata":                   `trial.metadata("k")`,
	"Trial.meanExclusive":              `trial.meanExclusive(ev, "TIME")`,
	"Trial.meanInclusive":              `trial.meanInclusive(ev, "TIME")`,
	"Trial.stddevExclusive":            `trial.stddevExclusive(ev, "TIME")`,
	"Trial.totalExclusive":             `trial.totalExclusive(ev, "TIME")`,
	"Trial.maxExclusive":               `trial.maxExclusive(ev, "TIME")`,
	"Trial.calls":                      `trial.calls(ev)`,
	"Trial.deriveMetric":               `trial.deriveMetric("CPU_CYCLES", "TIME", "-")`,
	"Trial.correlation":                `trial.correlation(ev, ev, "TIME")`,
	"Trial.isNested":                   `trial.isNested(ev, ev)`,
	"Trial.topN":                       `trial.topN("TIME", 2)`,
	"Trial.imbalanceRatio":             `trial.imbalanceRatio(ev, "TIME")`,
	"Trial.extract":                    `trial.extract([ev])`,

	"InefficiencyFacts": `InefficiencyFacts(trial)`, "StallSourceFacts": `StallSourceFacts(trial)`,
	"LocalityFacts": `LocalityFacts(trial)`, "SyncFacts": `SyncFacts(trial)`, "ScalingFacts": `ScalingFacts(trial, trial)`,
	"ClusterFacts": `ClusterFacts(trial, "TIME", 2)`, "PowerEstimate": `PowerEstimate(trial)["watts"] > 0`,
	"PowerFacts": `PowerFacts({"-O2": trial})`,
}

func TestScriptAPIValidCalls(t *testing.T) {
	s, _ := session(t)
	tr := genTrial(t, genidlest.OpenMP, 4, false)
	if err := s.Repo.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	SetArgs(s, []string{tr.App, tr.Experiment, tr.Name})
	const setup = "trial = Utilities.getTrial(args[0], args[1], args[2])\nev = trial.mainEvent\n"
	declared := map[string]bool{}
	for _, m := range apiTables {
		for _, row := range m.Rows {
			name := qualified(m, row.Name)
			declared[name] = true
			src, ok := validCalls[name]
			if !ok {
				t.Errorf("%s: no valid call in validCalls", name)
				continue
			}
			if !strings.Contains(src, row.Name) {
				t.Errorf("%s: valid call %q does not call it", name, src)
			}
			if err := s.RunScript(setup + src); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	for name := range validCalls {
		if !declared[name] {
			t.Errorf("validCalls has %s, which no table declares", name)
		}
	}
}

// apiDocRow matches a row of the API tables in docs/LANGUAGES.md.
var apiDocRow = regexp.MustCompile("^\\| `([^`]+)` \\| (.*) \\|$")

// TestScriptAPIDocumented holds the script-language section of
// docs/LANGUAGES.md to the tables: every declared row is a table row there,
// signature and doc verbatim, and every table row there is declared.
func TestScriptAPIDocumented(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "LANGUAGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(data), "\n## `.pes`")
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if m := apiDocRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = m[2]
		}
	}
	var missing bytes.Buffer
	for _, m := range apiTables {
		for _, row := range m.Rows {
			sig := qualified(m, row.Sig)
			doc, ok := documented[sig]
			switch {
			case !ok:
				fmt.Fprintf(&missing, "| `%s` | %s |\n", sig, row.Doc)
			case doc != row.Doc:
				t.Errorf("docs/LANGUAGES.md says %s: %q; its declaration says %q", sig, doc, row.Doc)
			}
			delete(documented, sig)
		}
	}
	if missing.Len() > 0 {
		t.Errorf("docs/LANGUAGES.md lacks these rows:\n%s", missing.String())
	}
	for sig := range documented {
		t.Errorf("docs/LANGUAGES.md lists %s, which no table declares", sig)
	}
}

func TestClusterFactsArguments(t *testing.T) {
	s, _ := session(t)
	tr := genTrial(t, genidlest.OpenMP, 4, false)
	s.Interp.SetGlobal("trial", &core.TrialObject{Trial: tr})
	for src, want := range map[string]string{
		`ClusterFacts(trial, "TIME", 2.5)`: `ClusterFacts(trial, metric, k): k: want a non-negative integer, got 2.5`,
		`ClusterFacts(trial, "NOPE", 2)`:   `ClusterFacts(trial, metric, k): metric: no metric "NOPE"`,
	} {
		if err := s.RunScript(src); err == nil || err.Error() != "script: line 1: "+want {
			t.Errorf("%s: error %v, want %q", src, err, want)
		}
	}
}

// TestScriptAPIAllocs: the tables are built once, so a session binds them
// without allocating per row, and a method call allocates no closure. The
// bounds are what the per-session closures the tables replaced allocated
// (85 and 6).
func TestScriptAPIAllocs(t *testing.T) {
	setup := testing.AllocsPerRun(20, func() { Install(core.NewSession(nil), "rules") })
	s := core.NewSession(nil)
	tr := genTrial(t, genidlest.OpenMP, 4, false)
	s.Interp.SetGlobal("trial", &core.TrialObject{Trial: tr})
	const src = `trial.meanExclusive("main", "TIME")`
	if err := s.RunScript(src); err != nil {
		t.Fatal(err)
	}
	call := testing.AllocsPerRun(100, func() {
		if err := s.RunScript(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewSession + Install: %v allocs; a method call: %v", setup, call)
	if setup > 85 || call > 6 {
		t.Errorf("NewSession + Install allocates %v (bound 85), a method call %v (bound 6)", setup, call)
	}
}
