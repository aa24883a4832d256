package rules

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"perfknow/internal/obs"
)

// Engine is the working memory plus rule base. Typical use:
//
//	eng := rules.NewEngine()
//	eng.LoadString(src)            // or AddRule for programmatic rules
//	eng.Assert(rules.NewFact(...)) // repeat
//	res, err := eng.Run()
type Engine struct {
	rules []*Rule

	// mu guards the working memory and result accumulators. Nothing in
	// this repository asserts from two goroutines — the fact builders run
	// on their caller — but Engine is exported through the facade, so the
	// lock stays. The match-resolve-act loop runs on one goroutine and
	// fires with the lock released, so rule actions (which Assert/Retract
	// through the same lock) never deadlock.
	// facts is the working memory in arbitrary storage order: Retract
	// swap-removes through factPos so retraction is O(1) regardless of
	// memory size (standing diagnoses retract and re-assert facts on every
	// streamed chunk). Assertion order is recovered by sorting on the
	// monotonic fact IDs wherever order is observable (orderedFactsLocked).
	mu              sync.Mutex
	facts           []*Fact
	factPos         map[*Fact]int
	nextID          int64
	output          []string
	recommendations []Recommendation

	fired    map[string]bool // refraction memory: rule + fact tuple ids
	firedLog []string

	// net is the incremental Rete-style match network (rete.go), the only
	// matcher: built lazily on the first Run and kept up to date by
	// Assert/Retract.
	net *reteNet

	// MaxCycles bounds the match-fire loop to guard against rules that
	// assert endlessly. The default (1000) is far above any real knowledge
	// base in this repository.
	MaxCycles int
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{fired: make(map[string]bool), factPos: make(map[*Fact]int), MaxCycles: 1000}
}

// AddRule appends a rule to the rule base.
func (e *Engine) AddRule(r Rule) {
	rc := r
	e.rules = append(e.rules, &rc)
}

// Rules returns the rule names in load order.
func (e *Engine) Rules() []string {
	out := make([]string, len(e.rules))
	for i, r := range e.rules {
		out[i] = r.Name
	}
	return out
}

// Assert adds a fact to working memory and returns it. Safe for concurrent
// use; fact IDs are issued in assertion order under the lock.
func (e *Engine) Assert(f *Fact) *Fact {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID++
	f.id = e.nextID
	e.factPos[f] = len(e.facts)
	e.facts = append(e.facts, f)
	if e.net != nil {
		e.net.assert(f)
	}
	return f
}

// Retract removes a fact from working memory. Safe for concurrent use.
func (e *Engine) Retract(f *Fact) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.factPos[f]
	if !ok {
		return
	}
	if last := len(e.facts) - 1; i != last {
		e.facts[i] = e.facts[last]
		e.factPos[e.facts[i]] = i
	}
	e.facts = e.facts[:len(e.facts)-1]
	delete(e.factPos, f)
	if e.net != nil {
		e.net.retract(f)
	}
}

// orderedFactsLocked snapshots working memory in assertion order (fact IDs
// are issued monotonically under the lock). Callers must hold e.mu.
func (e *Engine) orderedFactsLocked() []*Fact {
	out := append([]*Fact(nil), e.facts...)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Facts returns the current working memory in assertion order.
func (e *Engine) Facts() []*Fact {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.orderedFactsLocked()
}

// FactsOfType returns the working-memory facts of one type, in assertion
// order.
func (e *Engine) FactsOfType(t string) []*Fact {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*Fact
	for _, f := range e.orderedFactsLocked() {
		if f.Type == t {
			out = append(out, f)
		}
	}
	return out
}

// addOutput appends one explanation line (println consequences).
func (e *Engine) addOutput(line string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.output = append(e.output, line)
}

// addRecommendation appends one structured recommendation.
func (e *Engine) addRecommendation(r Recommendation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recommendations = append(e.recommendations, r)
}

// Result is the outcome of a Run: explanation lines from println
// consequences, structured recommendations, and the fired-activation log.
type Result struct {
	Output          []string
	Recommendations []Recommendation
	Fired           []string // rule names in firing order
}

// activation is one fully matched rule instance waiting on the agenda.
type activation struct {
	rule     *Rule
	bindings Bindings
	key      string
	order    int // rule index, for deterministic tie-breaks
}

// Run executes the match-resolve-act loop until quiescence: on each cycle
// the engine computes all activations not yet fired, picks the one with the
// highest salience (ties broken by rule load order, then matched-tuple
// order), fires it, and repeats — so consequences that assert or retract
// facts influence subsequent matching exactly as in a production system.
func (e *Engine) Run() (*Result, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with observability: when ctx carries an obs tracer, a
// `rules.run` span wraps the whole loop and every rule firing gets a
// `rules.fire` child span carrying the rule name — so a diagnosis trace
// shows which knowledge fired, in order, with timings.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	ctx, runSpan := obs.StartSpan(ctx, "rules.run")
	res, err := e.run(ctx)
	if res != nil {
		runSpan.SetAttr("fired", fmt.Sprintf("%d", len(res.Fired)))
	}
	runSpan.SetError(err)
	runSpan.End()
	return res, err
}

func (e *Engine) run(ctx context.Context) (*Result, error) {
	if err := e.step(ctx, nil); err != nil {
		return nil, err
	}
	return e.result(), nil
}

// result snapshots the accumulated output, recommendations and firing log.
func (e *Engine) result() *Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Result{
		Output:          append([]string(nil), e.output...),
		Recommendations: append([]Recommendation(nil), e.recommendations...),
		Fired:           append([]string(nil), e.firedLog...),
	}
}

// step is the match-resolve-act loop, shared by Run and Standing.Step: pick
// the best unfired activation, fire it, repeat until quiescence or MaxCycles.
// When fired is non-nil it is called after each firing with the output lines
// and recommendations that firing appended — the one thing a standing step
// needs that a batch run does not.
func (e *Engine) step(ctx context.Context, fired func(rule string, out []string, recs []Recommendation)) error {
	for cycle := 0; ; cycle++ {
		if cycle >= e.MaxCycles {
			return fmt.Errorf("rules: no quiescence after %d cycles (rule loop?)", e.MaxCycles)
		}
		next, err := e.selectActivation()
		if err != nil {
			return err
		}
		if next == nil {
			return nil
		}
		var outBase, recBase int
		if fired != nil {
			outBase, recBase = e.resultLens()
		}
		if err := e.fireOne(ctx, next); err != nil {
			return err
		}
		if fired != nil {
			out, recs := e.resultsSince(outBase, recBase)
			fired(next.rule.Name, out, recs)
		}
	}
}

// fireOne marks one activation fired and executes its action or
// consequences under a `rules.fire` span.
func (e *Engine) fireOne(ctx context.Context, next *activation) error {
	e.fired[next.key] = true
	e.firedLog = append(e.firedLog, next.rule.Name)
	_, fireSpan := obs.StartSpan(ctx, "rules.fire", "rule", next.rule.Name)
	// Clone the bindings so a consequence mutating its Context cannot
	// taint an agenda entry that outlives the firing.
	rctx := &Context{Engine: e, Rule: next.rule, Bindings: next.bindings.clone()}
	var fireErr error
	if next.rule.Action != nil {
		if err := next.rule.Action(rctx); err != nil {
			fireErr = fmt.Errorf("rules: rule %q action: %w", next.rule.Name, err)
		}
	} else {
		for _, c := range next.rule.Consequences {
			if err := c.Execute(rctx); err != nil {
				fireErr = fmt.Errorf("rules: rule %q consequence: %w", next.rule.Name, err)
				break
			}
		}
	}
	fireSpan.SetError(fireErr)
	fireSpan.End()
	return fireErr
}

// selectActivation returns the highest-priority unfired activation on the
// network's agenda, or nil at quiescence; better() is a total order, so the
// choice does not depend on map iteration.
//
// A Pattern.match error is recorded by the network when the offending fact
// is asserted or retracted, which may be long before this call, and the fact
// may be gone by now. ensureNetLocked therefore rebuilds a network that holds
// an error from current working memory: an error that does not recur is
// forgotten (a fact retracted before Run must not fail it), one that does is
// returned — by every Run or Step until the fact is retracted, after which
// the engine fires normally again.
func (e *Engine) selectActivation() (*activation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ensureNetLocked()
	if e.net.err != nil {
		return nil, e.net.err
	}
	var next *activation
	for _, a := range e.net.agenda {
		if e.fired[a.key] {
			continue
		}
		if next == nil || better(a, next) {
			next = a
		}
	}
	return next, nil
}

// ensureNetLocked (re)builds the Rete network when missing, stale (rules
// added since the last build) or holding a match error, replaying working
// memory in assertion order. Caller holds e.mu.
func (e *Engine) ensureNetLocked() {
	if e.net != nil && e.net.ruleCount == len(e.rules) && e.net.err == nil {
		return
	}
	e.net = buildNet(e.rules)
	for _, f := range e.orderedFactsLocked() {
		e.net.assert(f)
	}
}

func better(a, b *activation) bool {
	if a.rule.Salience != b.rule.Salience {
		return a.rule.Salience > b.rule.Salience
	}
	if a.order != b.order {
		return a.order < b.order
	}
	return a.key < b.key
}

func tupleKey(ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return strings.Join(parts, ",")
}

// Reset clears working memory, output and refraction state but keeps the
// rule base, so one loaded knowledge base can process many trials.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.facts = nil
	e.factPos = make(map[*Fact]int)
	e.output = nil
	e.recommendations = nil
	e.fired = make(map[string]bool)
	e.firedLog = nil
	e.net = nil
}

// SortedOutput returns the output lines sorted (useful in tests where
// firing order between equal-salience rules is irrelevant).
func (r *Result) SortedOutput() []string {
	out := append([]string(nil), r.Output...)
	sort.Strings(out)
	return out
}
