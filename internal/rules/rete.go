package rules

// rete.go is the engine's matcher: a Rete-style network, so firing cost
// scales with working-memory *deltas* instead of working-memory size.
// Alpha memories hold the facts of each type in assertion order, beta join
// nodes hold partial matches (tokens) per rule per pattern level, and
// assert/retract incrementally extend or kill tokens. Complete tokens land
// on an agenda, and conflict resolution picks from the agenda with the
// better() total order.
//
// The scan-everything matcher it replaced lives in naive_test.go as the
// differential oracle (differential_test.go: results, firing log and working
// memory equal over handwritten scenarios and seeded fact churn). Invariants
// that keep the network in agreement with it:
//
//   - Token identity is the tuple of positive-pattern fact IDs in pattern
//     order, so agenda keys (rule + "|" + tupleKey) match the oracle's and
//     the refraction memory means the same thing to both.
//   - Negated/Exists patterns contribute no bindings and no tuple IDs: a
//     parent token tracks how many facts currently satisfy the pattern
//     (negMatches) and owns at most one pass-through child, created or
//     killed on the 0<->1 transitions.
//   - Pattern.match errors are not raised at assert time: Assert has no
//     error result, and the fact may be retracted before anything runs. The
//     network records the first error (net.err); the next Run or Step
//     rebuilds the network from current working memory (selectActivation)
//     and returns the error only if the rebuild hits it again. A match that
//     errors counts as no match, so a network holding an error is still
//     structurally sound — it is rebuilt because only a replay can tell
//     whether the offending fact is still there. The network evaluates every
//     fact of a Negated/Exists pattern's type (it counts matches), where the
//     oracle stops at the first match, so a fact whose own fields make the
//     pattern error is always reported here and only sometimes there; for
//     errors that depend on the bindings alone the two agree on whether a
//     Run fails, and on the text when one pattern can fail.
//   - A fact asserted while it extends one pattern of a rule must not also
//     join through tokens created by that same assertion (the classic
//     double-join hazard); tokens carry a birth epoch and an assertion
//     only extends tokens born before it.
//
// Network shape for a rule with patterns P0..Pn-1 (× = join on shared
// bindings via Pattern.match):
//
//	alpha[T0] ──┐
//	            ├─× root ─ mems[0] ──┐
//	alpha[T1] ──┼─────────×──────────┴─ mems[1] ── ... ── mems[n-1]
//	alpha[T2] ──┘                                            │
//	                                                      agenda

import "fmt"

type reteNet struct {
	ruleCount int
	nodes     []*rnode
	typeIndex map[string][]patRef
	alpha     map[string][]*Fact
	alphaPos  map[*Fact]int // fact's index within alpha[f.Type]
	agenda    map[string]*activation
	factToks  map[*Fact][]*rtoken
	epoch     int
	err       error // first deferred Pattern.match error
}

// patRef addresses one pattern position in one rule's network node.
type patRef struct {
	node *rnode
	j    int
}

// rnode is the per-rule beta network: the root pseudo-token plus one token
// memory per pattern level.
type rnode struct {
	rule  *Rule
	order int
	root  *rtoken
	mems  [][]*rtoken
}

// rtoken is a partial match of patterns 0..level (level -1 for the root).
//
// memIdx and childIdx record the token's position in node.mems[level] and
// parent.children so detaching is an O(1) swap-remove instead of a linear
// scan — retraction cost then tracks the delta, not the memory size. Those
// lists are therefore NOT in insertion order; nothing downstream depends on
// it (the agenda is a map resolved by better(), bindings are per-tuple, and
// a recorded match error is confirmed by a replay in assertion order).
type rtoken struct {
	node       *rnode
	parent     *rtoken
	fact       *Fact // positive-pattern anchor; nil for root and pass-through tokens
	env        Bindings
	ids        []int64
	level      int
	birth      int
	memIdx     int // index in node.mems[level]; -1 when detached or root
	childIdx   int // index in parent.children; -1 for root and pass-throughs
	negMatches int // matches of the NEXT pattern when it is Negated/Exists
	passChild  *rtoken
	children   []*rtoken
	actKey     string // agenda key when this token is a complete activation
	dead       bool
}

func buildNet(rules []*Rule) *reteNet {
	n := &reteNet{
		ruleCount: len(rules),
		typeIndex: make(map[string][]patRef),
		alpha:     make(map[string][]*Fact),
		alphaPos:  make(map[*Fact]int),
		agenda:    make(map[string]*activation),
		factToks:  make(map[*Fact][]*rtoken),
	}
	for ri, r := range rules {
		node := &rnode{
			rule:  r,
			order: ri,
			mems:  make([][]*rtoken, len(r.Patterns)),
		}
		node.root = &rtoken{node: node, env: Bindings{}, level: -1, memIdx: -1, childIdx: -1}
		for j := range r.Patterns {
			n.typeIndex[r.Patterns[j].Type] = append(n.typeIndex[r.Patterns[j].Type], patRef{node: node, j: j})
		}
		n.nodes = append(n.nodes, node)
	}
	return n
}

func (n *reteNet) fail(err error, r *Rule) {
	if n.err == nil {
		n.err = fmt.Errorf("rules: rule %q: %w", r.Name, err)
	}
}

// parents returns the token memory feeding pattern j.
func (n *reteNet) parents(node *rnode, j int) []*rtoken {
	if j == 0 {
		return []*rtoken{node.root}
	}
	return node.mems[j-1]
}

// assert feeds a newly asserted fact through every pattern position of its
// type: positive patterns join it against existing parent tokens, and
// Negated/Exists patterns bump the counters of parent tokens it satisfies.
func (n *reteNet) assert(f *Fact) {
	n.alphaPos[f] = len(n.alpha[f.Type])
	n.alpha[f.Type] = append(n.alpha[f.Type], f)
	n.epoch++
	for _, pr := range n.typeIndex[f.Type] {
		p := &pr.node.rule.Patterns[pr.j]
		for _, t := range n.parents(pr.node, pr.j) {
			if t.dead || t.birth >= n.epoch {
				continue // tokens born from this very assertion already saw f
			}
			if p.Negated || p.Exists {
				_, ok, err := p.match(f, t.env)
				if err != nil {
					n.fail(err, pr.node.rule)
					continue
				}
				if !ok {
					continue
				}
				t.negMatches++
				if t.negMatches == 1 {
					if p.Negated {
						if t.passChild != nil {
							n.kill(t.passChild)
							t.passChild = nil
						}
					} else if t.passChild == nil {
						n.makePass(t, pr.j)
					}
				}
				continue
			}
			env, ok, err := p.match(f, t.env)
			if err != nil {
				n.fail(err, pr.node.rule)
				continue
			}
			if ok {
				n.extend(t, pr.j, f, env)
			}
		}
	}
}

// retract removes a fact: tokens anchored on it die (with their subtrees),
// and Negated/Exists counters it contributed to are decremented, toggling
// pass-through children on the 1->0 transitions.
func (n *reteNet) retract(f *Fact) {
	i, found := n.alphaPos[f]
	if !found {
		return // never asserted (or already retracted): nothing to undo
	}
	list := n.alpha[f.Type]
	if last := len(list) - 1; i != last {
		list[i] = list[last]
		n.alphaPos[list[i]] = i
	}
	n.alpha[f.Type] = list[:len(list)-1]
	delete(n.alphaPos, f)
	// Snapshot and drop the anchor list first: kill() edits factToks
	// entries, and mutating the slice mid-range would skip tokens.
	toks := n.factToks[f]
	delete(n.factToks, f)
	for _, t := range toks {
		if !t.dead {
			childDetach(t)
			n.kill(t)
		}
	}
	for _, pr := range n.typeIndex[f.Type] {
		p := &pr.node.rule.Patterns[pr.j]
		if !p.Negated && !p.Exists {
			continue
		}
		for _, t := range n.parents(pr.node, pr.j) {
			if t.dead {
				continue
			}
			_, ok, err := p.match(f, t.env)
			if err != nil {
				n.fail(err, pr.node.rule)
				continue
			}
			if !ok {
				continue
			}
			t.negMatches--
			if t.negMatches == 0 {
				if p.Negated {
					n.makePass(t, pr.j)
				} else if t.passChild != nil {
					n.kill(t.passChild)
					t.passChild = nil
				}
			}
		}
	}
}

// extend creates the token joining parent t with fact f at pattern j and
// propagates it through the remaining patterns.
func (n *reteNet) extend(t *rtoken, j int, f *Fact, env Bindings) {
	ids := make([]int64, len(t.ids)+1)
	copy(ids, t.ids)
	ids[len(t.ids)] = f.id
	child := &rtoken{
		node:     t.node,
		parent:   t,
		fact:     f,
		env:      env,
		ids:      ids,
		level:    j,
		birth:    n.epoch,
		memIdx:   len(t.node.mems[j]),
		childIdx: len(t.children),
	}
	t.children = append(t.children, child)
	t.node.mems[j] = append(t.node.mems[j], child)
	n.factToks[f] = append(n.factToks[f], child)
	n.propagate(child)
}

// makePass creates the pass-through token for a satisfied Negated/Exists
// pattern: same bindings, same tuple IDs, one level deeper.
func (n *reteNet) makePass(t *rtoken, j int) {
	child := &rtoken{
		node:     t.node,
		parent:   t,
		env:      t.env,
		ids:      t.ids,
		level:    j,
		birth:    n.epoch,
		memIdx:   len(t.node.mems[j]),
		childIdx: -1, // pass-throughs live in passChild, not children
	}
	t.passChild = child
	t.node.mems[j] = append(t.node.mems[j], child)
	n.propagate(child)
}

// propagate pushes a fresh token through the patterns after its level,
// scanning the alpha memories: positive patterns fan out into joins,
// Negated/Exists patterns seed the counter and maybe a pass-through child,
// and a token past the last pattern becomes an activation.
func (n *reteNet) propagate(t *rtoken) {
	r := t.node
	j := t.level + 1
	if j == len(r.rule.Patterns) {
		if j > 0 { // a rule with no patterns never fires
			n.complete(t)
		}
		return
	}
	p := &r.rule.Patterns[j]
	if p.Negated || p.Exists {
		count := 0
		for _, f := range n.alpha[p.Type] {
			_, ok, err := p.match(f, t.env)
			if err != nil {
				n.fail(err, r.rule)
				continue
			}
			if ok {
				count++
			}
		}
		t.negMatches = count
		if (p.Negated && count == 0) || (p.Exists && count > 0) {
			n.makePass(t, j)
		}
		return
	}
	for _, f := range n.alpha[p.Type] {
		env, ok, err := p.match(f, t.env)
		if err != nil {
			n.fail(err, r.rule)
			continue
		}
		if ok {
			n.extend(t, j, f, env)
		}
	}
}

// complete puts a fully matched token on the agenda, keyed by rule name and
// fact-ID tuple.
func (n *reteNet) complete(t *rtoken) {
	key := t.node.rule.Name + "|" + tupleKey(t.ids)
	t.actKey = key
	n.agenda[key] = &activation{
		rule:     t.node.rule,
		bindings: t.env,
		key:      key,
		order:    t.node.order,
	}
}

// kill marks a token subtree dead, removing every token from its memory
// and its activation (if complete) from the agenda.
func (n *reteNet) kill(t *rtoken) {
	if t.dead {
		return
	}
	t.dead = true
	memDetach(t)
	if t.actKey != "" {
		delete(n.agenda, t.actKey)
	}
	if t.fact != nil {
		if toks, ok := n.factToks[t.fact]; ok {
			for i, x := range toks {
				if x == t {
					n.factToks[t.fact] = append(toks[:i], toks[i+1:]...)
					break
				}
			}
		}
	}
	for _, c := range t.children {
		n.kill(c)
	}
	t.children = nil
	if t.passChild != nil {
		n.kill(t.passChild)
		t.passChild = nil
	}
}

// memDetach swap-removes t from its token memory in O(1) via memIdx.
func memDetach(t *rtoken) {
	if t.memIdx < 0 {
		return
	}
	list := t.node.mems[t.level]
	if last := len(list) - 1; t.memIdx != last {
		list[t.memIdx] = list[last]
		list[t.memIdx].memIdx = t.memIdx
	}
	t.node.mems[t.level] = list[:len(list)-1]
	t.memIdx = -1
}

// childDetach swap-removes t from its parent's children in O(1) via
// childIdx. Called only on retraction; a dying parent instead drops the
// whole children slice in kill().
func childDetach(t *rtoken) {
	if t.childIdx < 0 || t.parent == nil {
		return
	}
	list := t.parent.children
	if last := len(list) - 1; t.childIdx != last {
		list[t.childIdx] = list[last]
		list[t.childIdx].childIdx = t.childIdx
	}
	t.parent.children = list[:len(list)-1]
	t.childIdx = -1
}
