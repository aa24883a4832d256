package rules

// Differential tests: every scenario runs against two engines fed the
// identical rule base and the identical assert/retract/Run sequence — one
// run by Engine.Run (the Rete network), one by the scan-everything oracle
// (naiveRun, naive_test.go). Results
// (output lines, recommendations, firing log), errors and final working
// memory must match exactly. A seeded generator adds random rule bases and
// random fact churn on top of the handwritten corpus.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// enginePair drives a Rete engine and a naive engine in lockstep.
type enginePair struct {
	t     *testing.T
	rete  *Engine
	naive *Engine
	// parallel fact handles so retracts hit the corresponding fact
	reteFacts  []*Fact
	naiveFacts []*Fact
	// anyMatchError relaxes the error comparison to "both fail with a match
	// error or both succeed": when several patterns can fail, which one is
	// reported depends on evaluation order, and the network's is not the
	// oracle's.
	anyMatchError bool
}

func newPair(t *testing.T) *enginePair {
	t.Helper()
	return &enginePair{t: t, rete: NewEngine(), naive: NewEngine()}
}

func (p *enginePair) load(src string) {
	p.t.Helper()
	if err := p.rete.LoadString(src); err != nil {
		p.t.Fatal(err)
	}
	if err := p.naive.LoadString(src); err != nil {
		p.t.Fatal(err)
	}
}

func (p *enginePair) addRule(r Rule) {
	p.rete.AddRule(r)
	p.naive.AddRule(r)
}

func (p *enginePair) assert(factType string, fields map[string]any) {
	p.reteFacts = append(p.reteFacts, p.rete.Assert(NewFact(factType, fields)))
	p.naiveFacts = append(p.naiveFacts, p.naive.Assert(NewFact(factType, fields)))
}

func (p *enginePair) retract(i int) {
	p.rete.Retract(p.reteFacts[i])
	p.naive.Retract(p.naiveFacts[i])
}

// run executes both engines and asserts identical results, errors and
// working memory; it reports whether the run failed (in both).
func (p *enginePair) run() (failed bool) {
	p.t.Helper()
	rres, rerr := p.rete.Run()
	nres, nerr := naiveRun(p.naive)
	rs, ns := errText(rerr), errText(nerr)
	if p.anyMatchError && strings.Contains(rs, unboundText) && strings.Contains(ns, unboundText) {
		rs, ns = "", ""
	}
	if rs != ns {
		p.t.Fatalf("error mismatch\nrete:  %q\nnaive: %q", rs, ns)
	}
	if rerr != nil {
		return true
	}
	if !reflect.DeepEqual(rres.Output, nres.Output) {
		p.t.Fatalf("output mismatch\nrete:  %q\nnaive: %q", rres.Output, nres.Output)
	}
	if !reflect.DeepEqual(rres.Recommendations, nres.Recommendations) {
		p.t.Fatalf("recommendations mismatch\nrete:  %v\nnaive: %v", rres.Recommendations, nres.Recommendations)
	}
	if !reflect.DeepEqual(rres.Fired, nres.Fired) {
		p.t.Fatalf("firing log mismatch\nrete:  %v\nnaive: %v", rres.Fired, nres.Fired)
	}
	rf, nf := factDump(p.rete), factDump(p.naive)
	if !reflect.DeepEqual(rf, nf) {
		p.t.Fatalf("working memory mismatch\nrete:  %v\nnaive: %v", rf, nf)
	}
	return false
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func factDump(e *Engine) []string {
	var out []string
	for _, f := range e.Facts() {
		var fields []string
		for k, v := range f.Fields {
			fields = append(fields, fmt.Sprintf("%s=%v", k, v))
		}
		strings.Join(fields, ",")
		out = append(out, fmt.Sprintf("%s{%s}#%d", f.Type, sortedJoin(fields), f.id))
	}
	return out
}

func sortedJoin(parts []string) string {
	s := append([]string(nil), parts...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return strings.Join(s, ",")
}

func TestDifferentialJoinAndSalience(t *testing.T) {
	p := newPair(t)
	p.load(`
rule "Imbalance" salience 5
when
    e : Event ( n : name, ratio > 0.25 )
then
    println("imbalance " + n)
end
rule "Correlate"
when
    Event ( n : name, ratio > 0.25 )
    Inner ( event == n, v : value )
then
    recommend("corr", "event " + n + " value " + v)
end
`)
	for i := 0; i < 8; i++ {
		p.assert("Event", map[string]any{"name": fmt.Sprintf("e%d", i), "ratio": 0.1 * float64(i)})
		p.assert("Inner", map[string]any{"event": fmt.Sprintf("e%d", i), "value": i * i})
	}
	p.run()
	// More facts after a run: refraction keeps old firings, new ones fire.
	p.assert("Event", map[string]any{"name": "late", "ratio": 0.9})
	p.assert("Inner", map[string]any{"event": "late", "value": 99})
	p.run()
}

func TestDifferentialNegationToggles(t *testing.T) {
	p := newPair(t)
	p.load(`
rule "NoPartner"
when
    e : Event ( n : name )
    not Partner ( event == n )
then
    println("lonely " + n)
end
`)
	p.assert("Event", map[string]any{"name": "a"})
	p.assert("Event", map[string]any{"name": "b"})
	p.assert("Partner", map[string]any{"event": "b"})
	p.run()
	// Retract the partner: "b" becomes lonely; assert one for "a".
	p.retract(2)
	p.assert("Partner", map[string]any{"event": "a"})
	p.run()
}

func TestDifferentialExistsFiresOnce(t *testing.T) {
	p := newPair(t)
	p.load(`
rule "AnyHot"
when
    m : Machine ( h : host )
    exists Reading ( host == h, temp > 90 )
then
    println("hot host " + h)
end
`)
	p.assert("Machine", map[string]any{"host": "n1"})
	for i := 0; i < 5; i++ {
		p.assert("Reading", map[string]any{"host": "n1", "temp": 91 + i})
	}
	p.run()
	// Retract all but one hot reading: still exactly one (already fired).
	p.retract(1)
	p.retract(2)
	p.run()
	// Retract the rest, then re-add: new tuple key? Exists contributes no
	// IDs, so the reactivation has the same key and refraction holds.
	p.retract(3)
	p.retract(4)
	p.retract(5)
	p.run()
	p.assert("Reading", map[string]any{"host": "n1", "temp": 99})
	p.run()
}

func TestDifferentialRetractingConsequence(t *testing.T) {
	p := newPair(t)
	p.load(`
rule "Consume" salience 10
when
    j : Job ( state == "ready" )
then
    println("consume")
    retract j
    assert Done ( ok = true )
end
rule "CountDone"
when
    exists Done ( ok == true )
then
    println("some job finished")
end
`)
	for i := 0; i < 4; i++ {
		p.assert("Job", map[string]any{"state": "ready"})
	}
	p.run()
}

func TestDifferentialChainedAssertions(t *testing.T) {
	p := newPair(t)
	p.load(`
rule "Derive" salience 1
when
    s : Sample ( v : value > 10 )
then
    assert Derived ( doubled = v * 2 )
end
rule "Report"
when
    d : Derived ( x : doubled )
then
    println("derived " + x)
end
`)
	p.assert("Sample", map[string]any{"value": 5})
	p.assert("Sample", map[string]any{"value": 15})
	p.assert("Sample", map[string]any{"value": 25})
	p.run()
}

func TestDifferentialRulesAddedBetweenRuns(t *testing.T) {
	p := newPair(t)
	p.load(`
rule "First"
when
    Event ( kind == "x" )
then
    println("first")
end
`)
	p.assert("Event", map[string]any{"kind": "x"})
	p.run()
	// The Rete network must rebuild when the rule base grows.
	p.load(`
rule "Second"
when
    e : Event ( k : kind )
then
    println("second " + k)
end
`)
	p.run()
}

func TestDifferentialResetReuse(t *testing.T) {
	p := newPair(t)
	p.load(`
rule "R"
when
    Event ( v : value > 0 )
then
    println("v=" + v)
end
`)
	p.assert("Event", map[string]any{"value": 3})
	p.run()
	p.rete.Reset()
	p.naive.Reset()
	p.reteFacts, p.naiveFacts = nil, nil
	p.assert("Event", map[string]any{"value": 7})
	p.run()
}

func TestDifferentialMatchErrorParity(t *testing.T) {
	// An unbound fact variable inside a constraint RHS errors at match
	// time; the Rete engine must surface exactly the naive error.
	p := newPair(t)
	p.addRule(Rule{
		Name: "BadRef",
		Patterns: []Pattern{{
			Type: "Event",
			Constraints: []Constraint{{
				Field: "value", Op: "==",
				RHS: FieldRef{Binding: "nosuch", Field: "x"},
			}},
		}},
		Consequences: []Consequence{Println{Arg: Lit{V: "never"}}},
	})
	p.assert("Event", map[string]any{"value": 1})
	p.run()
}

// unbound is a constraint whose right-hand side fails for every fact that
// reaches it, whatever the fact holds.
var unbound = Constraint{Field: "x", Op: "==", RHS: FieldRef{Binding: "nosuch", Field: "x"}}

const unboundText = `unbound fact variable "nosuch"`

// TestDifferentialMatchErrorsSeeded lets several patterns fail at once: the
// random rule bases of TestDifferentialRandomSequences with `unbound`
// appended to about a third of their patterns, under the same fact churn.
// Engine and oracle must fail together or succeed together on every run, and
// agree on results and working memory whenever they succeed.
func TestDifferentialMatchErrorsSeeded(t *testing.T) {
	failed, succeeded := 0, 0
	for seed := 0; seed < 40; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := &ruleGen{r: r}
		p := newPair(t)
		p.anyMatchError = true
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			ru := g.rule(i)
			for pi := range ru.Patterns {
				if r.Intn(3) == 0 {
					ru.Patterns[pi].Constraints = append(ru.Patterns[pi].Constraints, unbound)
				}
			}
			p.addRule(ru)
		}
		run := func() {
			if p.run() {
				failed++
			} else {
				succeeded++
			}
		}
		for o, ops := 0, 15+r.Intn(25); o < ops; o++ {
			switch {
			case len(p.reteFacts) > 3 && r.Intn(3) == 0:
				p.retract(r.Intn(len(p.reteFacts)))
			case r.Intn(6) == 0:
				run()
			default:
				p.assert(genTypes[r.Intn(len(genTypes))], g.fields())
			}
		}
		run()
	}
	if failed < 20 || succeeded < 20 {
		t.Fatalf("generator is lopsided: %d failing runs, %d succeeding", failed, succeeded)
	}
}

func TestDifferentialRunawayParity(t *testing.T) {
	p := newPair(t)
	p.rete.MaxCycles = 50
	p.naive.MaxCycles = 50
	p.load(`
rule "Loop"
when
    exists Seed ( on == true )
then
    assert Seed ( on = true )
end
`)
	p.assert("Seed", map[string]any{"on": true})
	p.run() // both must report the same no-quiescence error
}

// --- randomized sequences ------------------------------------------------

type ruleGen struct{ r *rand.Rand }

var genTypes = []string{"A", "B", "C"}

func (g *ruleGen) fields() map[string]any {
	return map[string]any{
		"x":   g.r.Intn(4),
		"y":   g.r.Intn(3),
		"tag": fmt.Sprintf("t%d", g.r.Intn(3)),
	}
}

// rule builds a random 1-3 pattern rule joining on x, with occasional
// negation/exists, salience, and println/recommend/assert consequences.
func (g *ruleGen) rule(i int) Rule {
	n := 1 + g.r.Intn(3)
	ru := Rule{Name: fmt.Sprintf("R%02d", i), Salience: g.r.Intn(3)}
	joinVar := ""
	for pi := 0; pi < n; pi++ {
		p := Pattern{Type: genTypes[g.r.Intn(len(genTypes))]}
		if pi > 0 && g.r.Intn(3) == 0 {
			if g.r.Intn(2) == 0 {
				p.Negated = true
			} else {
				p.Exists = true
			}
		}
		if !p.Negated && !p.Exists && g.r.Intn(2) == 0 {
			p.Binding = fmt.Sprintf("f%d", pi)
		}
		switch g.r.Intn(3) {
		case 0: // constant test
			p.Constraints = append(p.Constraints, Constraint{
				Field: "x", Op: []string{"==", ">", "<", "!="}[g.r.Intn(4)],
				RHS: Lit{V: g.r.Intn(4)},
			})
		case 1: // bind (and maybe test)
			c := Constraint{Field: "x", BindVar: fmt.Sprintf("v%d", pi)}
			if joinVar == "" && !p.Negated && !p.Exists {
				joinVar = c.BindVar
			}
			if g.r.Intn(2) == 0 {
				c.Op, c.RHS = ">=", Lit{V: 1}
			}
			p.Constraints = append(p.Constraints, c)
		default: // join against an earlier binding when one exists
			if joinVar != "" {
				p.Constraints = append(p.Constraints, Constraint{
					Field: "x", Op: "==", RHS: VarRef{Name: joinVar},
				})
			} else {
				p.Constraints = append(p.Constraints, Constraint{
					Field: "y", Op: "<", RHS: Lit{V: 2},
				})
			}
		}
		ru.Patterns = append(ru.Patterns, p)
	}
	switch g.r.Intn(3) {
	case 0:
		ru.Consequences = []Consequence{Println{Arg: Lit{V: ru.Name + " fired"}}}
	case 1:
		ru.Consequences = []Consequence{Recommend{
			Category: Lit{V: "cat"},
			Text:     Lit{V: ru.Name},
		}}
	default:
		ru.Consequences = []Consequence{
			Println{Arg: Lit{V: ru.Name}},
			AssertFact{Type: "D", Fields: map[string]Expr{"src": Lit{V: ru.Name}}},
		}
	}
	return ru
}

func TestDifferentialRandomSequences(t *testing.T) {
	const seeds = 60
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(seed)))
			g := &ruleGen{r: r}
			p := newPair(t)
			nRules := 1 + r.Intn(4)
			for i := 0; i < nRules; i++ {
				p.addRule(g.rule(i))
			}
			// A sink rule over the fact type asserted by consequences, so
			// chained assertions feed back into matching.
			p.addRule(Rule{
				Name:     "Sink",
				Patterns: []Pattern{{Type: "D", Constraints: []Constraint{{Field: "src", BindVar: "s"}}}},
				Consequences: []Consequence{
					Println{Arg: Binary{Op: "+", L: Lit{V: "sink:"}, R: VarRef{Name: "s"}}},
				},
			})
			ops := 15 + r.Intn(25)
			for o := 0; o < ops; o++ {
				switch {
				case len(p.reteFacts) > 3 && r.Intn(5) == 0:
					p.retract(r.Intn(len(p.reteFacts)))
				case r.Intn(8) == 0:
					p.run()
				default:
					p.assert(genTypes[r.Intn(len(genTypes))], g.fields())
				}
			}
			p.run()
			// Churn after quiescence, then run again.
			for o := 0; o < 6; o++ {
				if len(p.reteFacts) > 0 && o%2 == 0 {
					p.retract(r.Intn(len(p.reteFacts)))
				} else {
					p.assert(genTypes[r.Intn(len(genTypes))], g.fields())
				}
			}
			p.run()
		})
	}
}
