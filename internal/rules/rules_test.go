package rules

import (
	"strings"
	"testing"
)

const stallRule = `
// The Fig. 2 rule from the paper.
rule "Stalls per Cycle"
when
    f : MeanEventFact ( m : metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
                        higherLower == HIGHER,
                        s : severity > 0.10,
                        e : eventName,
                        a : mainValue, v : eventValue,
                        factType == "Compared to Main" )
then
    println("Event " + e + " has a higher than average stall / cycle rate")
    println("    Average stall / cycle: " + a)
    println("    Event stall / cycle: " + v)
    println("    Percentage of total runtime: " + s)
end
`

func meanEventFact(event string, severity, mainVal, eventVal float64, hl string) *Fact {
	return NewFact("MeanEventFact", map[string]any{
		"metric":      "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
		"higherLower": hl,
		"severity":    severity,
		"eventName":   event,
		"mainValue":   mainVal,
		"eventValue":  eventVal,
		"factType":    "Compared to Main",
	})
}

func TestFig2RuleFires(t *testing.T) {
	e := NewEngine()
	if err := e.LoadString(stallRule); err != nil {
		t.Fatal(err)
	}
	e.Assert(meanEventFact("bicgstab", 0.31, 0.4, 0.75, "HIGHER"))
	e.Assert(meanEventFact("tiny", 0.02, 0.4, 0.9, "HIGHER"))  // below severity
	e.Assert(meanEventFact("matxvec", 0.2, 0.4, 0.1, "LOWER")) // wrong direction
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 1 {
		t.Fatalf("fired %v, want exactly one", res.Fired)
	}
	if !strings.Contains(res.Output[0], "bicgstab") {
		t.Fatalf("output: %v", res.Output)
	}
	if len(res.Output) != 4 {
		t.Fatalf("expected 4 println lines, got %d", len(res.Output))
	}
}

func TestRuleDoesNotRefire(t *testing.T) {
	e := NewEngine()
	if err := e.LoadString(stallRule); err != nil {
		t.Fatal(err)
	}
	e.Assert(meanEventFact("x", 0.5, 1, 2, "HIGHER"))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Second run: same fact tuple must not fire again.
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 1 {
		t.Fatalf("refired: %v", res.Fired)
	}
}

func TestSalienceOrdersFiring(t *testing.T) {
	src := `
rule "low" salience 1
when f : Thing ( name )
then println("low") end

rule "high" salience 10
when f : Thing ( name )
then println("high") end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Thing", map[string]any{"name": "a"}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired[0] != "high" || res.Fired[1] != "low" {
		t.Fatalf("firing order: %v", res.Fired)
	}
}

func TestNegativeSalience(t *testing.T) {
	src := `
rule "last" salience -5
when f : Thing ( name )
then println("last") end

rule "first"
when f : Thing ( name )
then println("first") end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Thing", map[string]any{"name": "a"}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired[0] != "first" || res.Fired[1] != "last" {
		t.Fatalf("order: %v", res.Fired)
	}
}

func TestJoinAcrossFacts(t *testing.T) {
	// Two patterns joined on the shared variable e: load imbalance on an
	// event that is also nested inside another (the paper's MSA rule shape).
	src := `
rule "Load Imbalance"
when
    i : Imbalance ( e : eventName, r : ratio > 0.25, severity > 0.05 )
    n : Nesting ( inner == e, o : outer )
    c : Correlation ( innerEvent == e, outerEvent == o, value < -0.9 )
then
    println("Load imbalance: " + e + " inside " + o + " (ratio " + r + ")")
    recommend("scheduling", "use dynamic scheduling for " + e)
end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Imbalance", map[string]any{"eventName": "inner_loop", "ratio": 0.45, "severity": 0.3}))
	e.Assert(NewFact("Imbalance", map[string]any{"eventName": "calm_loop", "ratio": 0.02, "severity": 0.3}))
	e.Assert(NewFact("Nesting", map[string]any{"inner": "inner_loop", "outer": "outer_loop"}))
	e.Assert(NewFact("Correlation", map[string]any{"innerEvent": "inner_loop", "outerEvent": "outer_loop", "value": -0.98}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 1 {
		t.Fatalf("fired %v", res.Fired)
	}
	if len(res.Recommendations) != 1 {
		t.Fatalf("recommendations: %v", res.Recommendations)
	}
	rec := res.Recommendations[0]
	if rec.Category != "scheduling" || !strings.Contains(rec.Text, "inner_loop") || rec.Rule != "Load Imbalance" {
		t.Fatalf("recommendation = %+v", rec)
	}
}

func TestJoinFailsWithoutMatchingPartner(t *testing.T) {
	src := `
rule "pair"
when
    A ( x : val )
    B ( val == x )
then println("paired " + x) end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("A", map[string]any{"val": 1.0}))
	e.Assert(NewFact("B", map[string]any{"val": 2.0}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 0 {
		t.Fatalf("join should not fire: %v", res.Fired)
	}
	// Add the matching partner.
	e.Assert(NewFact("B", map[string]any{"val": 1.0}))
	res, err = e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 1 {
		t.Fatalf("fired %v", res.Fired)
	}
}

func TestNotPattern(t *testing.T) {
	src := `
rule "unsuppressed"
when
    t : Thing ( n : name )
    not Suppression ( name == n )
then println("ok " + n) end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Thing", map[string]any{"name": "a"}))
	e.Assert(NewFact("Thing", map[string]any{"name": "b"}))
	e.Assert(NewFact("Suppression", map[string]any{"name": "b"}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != "ok a" {
		t.Fatalf("output: %v", res.Output)
	}
}

func TestExistsPattern(t *testing.T) {
	src := `
rule "summary"
when
    t : Trial ( n : name )
    exists Problem ( severity > 0.1 )
then println("trial " + n + " has problems") end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Trial", map[string]any{"name": "t1"}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 0 {
		t.Fatal("exists fired without a matching fact")
	}
	// Adding two problems still fires the rule only once per Trial tuple.
	e.Assert(NewFact("Problem", map[string]any{"severity": 0.5}))
	e.Assert(NewFact("Problem", map[string]any{"severity": 0.9}))
	res, err = e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 1 {
		t.Fatalf("exists fired %d times, want 1", len(res.Fired))
	}
	if res.Output[0] != "trial t1 has problems" {
		t.Fatalf("output: %v", res.Output)
	}
}

func TestAssertChainsRules(t *testing.T) {
	src := `
rule "observe" salience 10
when
    m : Measurement ( v : value > 100 )
then
    assert Symptom ( kind = "hot", value = v )
end

rule "diagnose"
when
    s : Symptom ( kind == "hot", v : value )
then
    println("diagnosed " + v)
    retract s
end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Measurement", map[string]any{"value": 500.0}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 2 {
		t.Fatalf("fired %v", res.Fired)
	}
	if len(e.FactsOfType("Symptom")) != 0 {
		t.Fatal("symptom was not retracted")
	}
	if res.Output[0] != "diagnosed 500" {
		t.Fatalf("output: %v", res.Output)
	}
}

func TestArithmeticInExpressions(t *testing.T) {
	src := `
rule "ratio"
when
    m : Pair ( a : x, b : y, y > 0 )
then
    println("ratio=" + (a / b) + " scaled=" + (a * 2 - 1))
end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Pair", map[string]any{"x": 10.0, "y": 4.0}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != "ratio=2.5 scaled=19" {
		t.Fatalf("output: %v", res.Output)
	}
}

func TestContainsOperator(t *testing.T) {
	src := `
rule "exchange"
when
    f : Event ( n : name contains "exchange" )
then println("found " + n) end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Event", map[string]any{"name": "exchange_var__"}))
	e.Assert(NewFact("Event", map[string]any{"name": "bicgstab"}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != "found exchange_var__" {
		t.Fatalf("output: %v", res.Output)
	}
}

func TestFieldRefInConsequence(t *testing.T) {
	src := `
rule "fieldref"
when
    f : Thing ( name )
then println("name is " + f.name) end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Thing", map[string]any{"name": "zeta"}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != "name is zeta" {
		t.Fatalf("output: %v", res.Output)
	}
}

func TestMissingFieldMeansNoMatch(t *testing.T) {
	src := `
rule "r"
when f : Thing ( missingField == 1 )
then println("no") end
`
	e := NewEngine()
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Thing", map[string]any{"name": "a"}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 0 {
		t.Fatal("rule matched a fact missing the constrained field")
	}
}

func TestRunawayRuleDetected(t *testing.T) {
	src := `
rule "loop"
when f : Seed ( value )
then assert Seed ( value = 1 ) end
`
	e := NewEngine()
	e.MaxCycles = 50
	if err := e.LoadString(src); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Seed", map[string]any{"value": 1.0}))
	if _, err := e.Run(); err == nil {
		t.Fatal("runaway rule not detected")
	}
}

func TestProgrammaticRule(t *testing.T) {
	e := NewEngine()
	var captured string
	e.AddRule(Rule{
		Name:     "go-rule",
		Patterns: []Pattern{{Binding: "f", Type: "Thing", Constraints: []Constraint{{Field: "name", BindVar: "n"}}}},
		Action: func(ctx *Context) error {
			captured = ctx.Bindings["n"].(string)
			return nil
		},
	})
	e.Assert(NewFact("Thing", map[string]any{"name": "direct"}))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if captured != "direct" {
		t.Fatalf("captured %q", captured)
	}
}

func TestResetKeepsRules(t *testing.T) {
	e := NewEngine()
	if err := e.LoadString(stallRule); err != nil {
		t.Fatal(err)
	}
	e.Assert(meanEventFact("x", 0.5, 1, 2, "HIGHER"))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if len(e.Facts()) != 0 {
		t.Fatal("Reset kept facts")
	}
	if len(e.Rules()) != 1 {
		t.Fatal("Reset dropped rules")
	}
	e.Assert(meanEventFact("x", 0.5, 1, 2, "HIGHER"))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fired) != 1 {
		t.Fatal("rule did not fire after Reset")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no rules":          "   // just a comment\n",
		"bad rule name":     `rule notastring when f : T ( x ) then end`,
		"missing then":      `rule "r" when f : T ( x )`,
		"missing end":       `rule "r" when f : T ( x ) then println("a")`,
		"bad consequence":   `rule "r" when f : T ( x ) then frobnicate(x) end`,
		"unterminated str":  `rule "r`,
		"bad constraint op": `rule "r" when f : T ( x % 2 ) then println("a") end`,
		"bad salience":      `rule "r" salience abc when f : T ( x ) then println("a") end`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parse accepted %q", name, src)
		}
	}
}

func TestLexerDetails(t *testing.T) {
	toks, err := lex(`x >= 1.5e2 # comment
"s\"tr" <=`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "x" || toks[1].text != ">=" || toks[2].num != 150 {
		t.Fatalf("tokens: %+v", toks[:3])
	}
	if toks[3].text != `s"tr` || toks[4].text != "<=" {
		t.Fatalf("tokens: %+v", toks[3:5])
	}
}

func TestFactStringAndNormalize(t *testing.T) {
	f := NewFact("T", map[string]any{"i": 42, "u": uint64(7), "f32": float32(2), "b": true, "s": "x"})
	if v, _ := f.Get("i"); v != 42.0 {
		t.Fatalf("int not normalized: %v (%T)", v, v)
	}
	if v, _ := f.Get("u"); v != 7.0 {
		t.Fatalf("uint64 not normalized: %v", v)
	}
	if v, _ := f.Get("f32"); v != 2.0 {
		t.Fatalf("float32 not normalized: %v", v)
	}
	if _, ok := f.Get("nope"); ok {
		t.Fatal("missing field reported present")
	}
	if s := f.String(); !strings.HasPrefix(s, "T(") {
		t.Fatalf("String: %q", s)
	}
}

func TestSortedOutput(t *testing.T) {
	r := &Result{Output: []string{"b", "a"}}
	got := r.SortedOutput()
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("sorted: %v", got)
	}
	if r.Output[0] != "b" {
		t.Fatal("SortedOutput mutated the result")
	}
}
