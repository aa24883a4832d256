package script

// Differential tests: every script runs through both the compiled engine
// (Interp.Run) and the tree-walking oracle (runTreeWalk, treewalk_test.go);
// output bytes, step counts and error text must match exactly. The corpus covers the
// semantic corners where the two implementations genuinely differ in
// mechanism (scoping, conditional definition, closures, budget errors), and
// a seeded generator adds a few hundred random programs on top.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

type engineResult struct {
	out   string
	err   string
	steps int
}

func runEngine(src string, treeWalk bool, maxSteps int, ctx context.Context) engineResult {
	in := New()
	in.MaxSteps = maxSteps
	if ctx != nil {
		in.SetContext(ctx)
	}
	var buf bytes.Buffer
	in.Stdout = &buf
	err := runWith(in, src, treeWalk)
	res := engineResult{out: buf.String(), steps: in.Steps()}
	if err != nil {
		res.err = err.Error()
	}
	return res
}

// runWith executes src on in with the engine or the oracle.
func runWith(in *Interp, src string, treeWalk bool) error {
	if treeWalk {
		return runTreeWalk(in, src)
	}
	return in.Run(src)
}

// diffRun asserts both engines agree on output, error text and step count.
func diffRun(t *testing.T, src string) {
	t.Helper()
	diffRunOpts(t, src, 0, nil)
}

func diffRunOpts(t *testing.T, src string, maxSteps int, ctx context.Context) {
	t.Helper()
	tree := runEngine(src, true, maxSteps, ctx)
	comp := runEngine(src, false, maxSteps, ctx)
	if tree.out != comp.out {
		t.Errorf("output mismatch\nscript:\n%s\ntree-walker: %q\ncompiled:    %q", src, tree.out, comp.out)
	}
	if tree.err != comp.err {
		t.Errorf("error mismatch\nscript:\n%s\ntree-walker: %q\ncompiled:    %q", src, tree.err, comp.err)
	}
	if tree.steps != comp.steps {
		t.Errorf("step-count mismatch\nscript:\n%s\ntree-walker: %d\ncompiled:    %d", src, tree.steps, comp.steps)
	}
}

var diffCorpus = []string{
	// Arithmetic, comparisons, short-circuit.
	`print(1 + 2 * 3 - 4 / 2, 7 % 3, -5 % 3, 2 < 3, 3 <= 3, "a" + "b")`,
	`print(1.5 * 2, 10 / 4, 2e3 + 1, 0.1 + 0.2)`,
	`print(true and false, true or false, not nil, 1 and "x", nil or 5)`,
	`print(1 == 1.0, "a" == "a", nil == nil, [1] == [1], true != false)`,
	// Conditional definition: y only exists on one path.
	`x = 1
if x > 0 { y = 10 } else { z = 20 }
print(x, y)`,
	// Block scoping: name defined inside a block dies with it.
	`if true { inner = 1; print(inner) }
ok = 1
print(ok)`,
	// Assignment through nested scopes updates the outer binding.
	`n = 0
for i in range(3) { n = n + i }
print(n)`,
	// Shadow-ish pattern: loop var invisible outside.
	`for i in range(2) { last = i }
print(last)`,
	// While with break/continue and the per-iteration step charge.
	`i = 0
total = 0
while true {
  i = i + 1
  if i % 2 == 0 { continue }
  if i > 9 { break }
  total = total + i
}
print(i, total)`,
	// For over map (sorted keys), string, and key,value form.
	`m = {"b": 2, "a": 1, "c": 3}
for k, v in m { print(k, v) }
for ch in "hey" { print(ch) }
for k, v in [10, 20] { print(k, v) }`,
	// Functions, recursion, early return, no-value return.
	`func fib(n) { if n < 2 { return n }; return fib(n-1) + fib(n-2) }
print(fib(12))`,
	`func shout(s) { print(s); return }
print(shout("hi"))`,
	// Closures: the counter pattern.
	`func make_counter() {
  c = 0
  func inc() { c = c + 1; return c }
  return inc
}
a = make_counter()
b = make_counter()
print(a(), a(), b(), a())`,
	// Closure capturing a loop variable's enclosing scope.
	`func adder(n) { func add(x) { return x + n }; return add }
plus2 = adder(2)
plus10 = adder(10)
print(plus2(5), plus10(5))`,
	// Higher-order: functions as values in lists/maps.
	`func sq(x) { return x * x }
fns = [sq]
print(fns[0](7))`,
	// Lists and maps: index, assign, append, len, nesting.
	`l = [1, 2, 3]
l[1] = 20
append(l, [4, 5])
m = {"k": l}
m["k2"] = m["k"][3][1]
print(l, len(l), m["k2"])`,
	// Builtins and string ops.
	`print(len("hello"), str(42), num("3.5") + 1, upper("ab"), lower("AB"))`,
	`print(split("a,b,c", ","), join(["x", "y"], "-"), contains("hay", "a"))`,
	// Triple-quoted string (multi-line, no escapes).
	`s = """line1
line2"""
print(len(s), s)`,
	// Deep nesting and frameless blocks.
	`x = 0
if true { if true { if true { x = x + 1 } } }
print(x)`,
	// Unary operators.
	`a = 5
print(-a, not a, not not a, -(-a))`,
	// Runtime errors: text must match exactly, including positions.
	`x = nope + 1`,
	`print(1 + [])`,
	`x = 1 / 0`,
	`x = 1 % 0`,
	`l = [1]
print(l[5])`,
	`m = {}
print(m["missing"])`,
	`func f(a, b) { return a }
f(1)`,
	`x = "s"
x.bogus`,
	`n = 5
n[0] = 1`,
	`for x in 42 { print(x) }`,
	`print(-"str")`,
	// Error mid-loop: partial output must match.
	`for i in range(5) {
  print(i)
  if i == 2 { boom() }
}`,
	// Statement after top-level return-ish control (break at top level
	// stops the program in both engines).
	`print("a")
break
print("b")`,
}

func TestDifferentialCorpus(t *testing.T) {
	for i, src := range diffCorpus {
		src := src
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) { diffRun(t, src) })
	}
}

// TestDifferentialProgramCache re-runs sources through one compiled interp
// to exercise the program cache and cross-run frame reuse.
func TestDifferentialProgramCache(t *testing.T) {
	in := New()
	var buf bytes.Buffer
	in.Stdout = &buf
	src := `total = 0
for i in range(10) { total = total + i }
print(total)`
	for i := 0; i < 3; i++ {
		if err := in.Run(src); err != nil {
			t.Fatal(err)
		}
	}
	if buf.String() != "45\n45\n45\n" {
		t.Fatalf("cached program output: %q", buf.String())
	}
	// Cache overflow: the map resets rather than growing without bound.
	for i := 0; i < maxCachedPrograms+5; i++ {
		if err := in.Run(fmt.Sprintf("v%d = %d", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(in.progs) > maxCachedPrograms {
		t.Fatalf("program cache grew to %d entries", len(in.progs))
	}
}

// genProgram builds a random but terminating program from a small grammar.
// Everything is seeded, so failures are reproducible by case number.
func genProgram(r *rand.Rand) string {
	g := &diffGen{r: r}
	var b strings.Builder
	n := 3 + r.Intn(8)
	for i := 0; i < n; i++ {
		g.stmt(&b, 0)
	}
	for _, v := range g.vars {
		fmt.Fprintf(&b, "print(%s)\n", v)
	}
	return b.String()
}

type diffGen struct {
	r    *rand.Rand
	vars []string
	n    int
}

func (g *diffGen) freshVar() string {
	v := fmt.Sprintf("v%d", g.n)
	g.n++
	g.vars = append(g.vars, v)
	return v
}

func (g *diffGen) someVar() string {
	if len(g.vars) == 0 || g.r.Intn(4) == 0 {
		return g.freshVar()
	}
	return g.vars[g.r.Intn(len(g.vars))]
}

func (g *diffGen) expr(depth int) string {
	if depth > 2 || g.r.Intn(3) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(100))
		case 1:
			return fmt.Sprintf("%d.%d", g.r.Intn(10), g.r.Intn(100))
		case 2:
			if len(g.vars) > 0 {
				return g.vars[g.r.Intn(len(g.vars))]
			}
			return "7"
		default:
			return []string{"true", "false", `"s"`, "nil", "[1, 2]"}[g.r.Intn(5)]
		}
	}
	ops := []string{"+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "and", "or"}
	op := ops[g.r.Intn(len(ops))]
	if g.r.Intn(6) == 0 {
		return fmt.Sprintf("(not %s)", g.expr(depth+1))
	}
	return fmt.Sprintf("(%s %s %s)", g.expr(depth+1), op, g.expr(depth+1))
}

func (g *diffGen) stmt(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	switch c := g.r.Intn(6); {
	case c <= 2 || depth >= 2:
		fmt.Fprintf(b, "%s%s = %s\n", indent, g.someVar(), g.expr(0))
	case c == 3:
		fmt.Fprintf(b, "%sif %s {\n", indent, g.expr(0))
		g.stmt(b, depth+1)
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(b, "%s} else {\n", indent)
			g.stmt(b, depth+1)
		}
		fmt.Fprintf(b, "%s}\n", indent)
	case c == 4:
		v := g.freshVar()
		fmt.Fprintf(b, "%sfor %s in range(%d) {\n", indent, v, 1+g.r.Intn(5))
		g.stmt(b, depth+1)
		fmt.Fprintf(b, "%s}\n", indent)
	default:
		fmt.Fprintf(b, "%sprint(%s)\n", indent, g.expr(0))
	}
}

func TestDifferentialGenerated(t *testing.T) {
	const cases = 300
	for i := 0; i < cases; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		src := genProgram(r)
		t.Run(fmt.Sprintf("seed%03d", i), func(t *testing.T) { diffRun(t, src) })
	}
}

// TestBudgetErrorPosition is the regression test for the ISSUE bugfix:
// step-budget exhaustion must report the source line and column of the
// statement that blew the budget — identically in both engines.
func TestBudgetErrorPosition(t *testing.T) {
	src := `x = 0
while true {
    x = x + 1
}`
	for _, treeWalk := range []bool{false, true} {
		res := runEngine(src, treeWalk, 10, nil)
		want := "script: line 3, col 5: execution exceeded 10 steps"
		if res.err != want {
			t.Errorf("treeWalk=%v: budget error = %q, want %q", treeWalk, res.err, want)
		}
	}
	// And both engines agree on the general shape under a variety of limits.
	for _, max := range []int{1, 2, 3, 5, 7, 50} {
		diffRunOpts(t, src, max, nil)
	}
}

// TestCancellationErrorPosition: a context cancelled before Run stops the
// script at the first statement with position info, in both engines.
func TestCancellationErrorPosition(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := "\n\n  x = 1"
	for _, treeWalk := range []bool{false, true} {
		in := New()
		in.Stdout = &bytes.Buffer{}
		in.SetContext(ctx)
		err := runWith(in, src, treeWalk)
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("treeWalk=%v: want wrapped context.Canceled, got %v", treeWalk, err)
		}
		want := "script: line 3, col 3: cancelled: context canceled"
		if err.Error() != want {
			t.Errorf("treeWalk=%v: cancel error = %q, want %q", treeWalk, err.Error(), want)
		}
	}
}
