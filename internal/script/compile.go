package script

// compile.go lowers the parsed AST into Go closures, the elvish-style
// compile(node) -> func(*frame) design: every statement and expression
// becomes a closure specialized at compile time (names resolved to frame
// slot indices, operators pre-dispatched), so execution does no AST
// dispatch, no map lookups for locals, and — thanks to a frame pool and a
// small-float box cache — almost no allocation.
//
// This is the only script engine. The AST-walking evaluator it replaced
// lives in treewalk_test.go as the differential oracle (differential_test.go
// holds output bytes, step counts and error text equal over a handwritten
// corpus and seeded random programs; asset_test.go runs it over the shipped
// .pes scripts). The invariants that keep the two in agreement:
//
//   - A slot is "set" exactly when the tree-walker's corresponding env map
//     would contain the name. Scopes hoist a slot for every name the
//     tree-walker could define directly in them (identifier assignment
//     targets, func names, loop variables, parameters); the slot holds the
//     `unset` sentinel until the defining statement actually runs, so
//     conditional definition, forward references and shadowing behave
//     identically.
//   - Reads walk the compile-time candidate slots innermost-first, then
//     fall back to the interpreter globals, then fail with the same
//     "undefined name" error the tree-walker produces — never at compile
//     time, since dead code must not error.
//   - Writes mirror env.set: the first *set* candidate is assigned;
//     otherwise an existing global is updated; otherwise the name is
//     defined in the current scope's hoisted slot.
//   - Step accounting matches exec() exactly: one step per executed
//     statement plus one extra per while-loop iteration, with the budget /
//     cancellation check at the same points (and source positions on the
//     resulting errors).
//   - A frame is pooled only when no func statement occurs anywhere in the
//     scope's subtree, because closures capture their defining frame chain.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"perfknow/internal/obs"
)

type cstmt func(in *Interp, f *frame) (control, error)
type cexpr func(in *Interp, f *frame) (Value, error)

// frame is the compiled-mode activation record: a flat slot array chained
// to the lexically enclosing frame. Scopes that hoist no names materialize
// no frame at all.
type frame struct {
	slots  []Value
	parent *frame
}

func (f *frame) at(up int) *frame {
	for ; up > 0; up-- {
		f = f.parent
	}
	return f
}

type unsetT struct{}

// unset marks a slot whose name has not been defined on this execution
// path yet; reads fall through to outer candidates and then the globals.
var unset Value = unsetT{}

// boxedFloats caches the interface boxes for small non-negative integral
// floats — loop indices and counters, the overwhelmingly common arithmetic
// values — so hot paths do not allocate per operation.
const boxedFloatMax = 1024

var boxedFloats [boxedFloatMax + 1]Value

func init() {
	for i := range boxedFloats {
		boxedFloats[i] = float64(i)
	}
}

func boxFloat(v float64) Value {
	if v >= 0 && v <= boxedFloatMax && v == math.Trunc(v) {
		return boxedFloats[int(v)]
	}
	return v
}

// scopePlan is the compile-time layout of one scope: how many slots its
// frame needs and whether frames may be recycled through the pool.
type scopePlan struct {
	n      int
	pooled bool
	pool   sync.Pool
}

func (sp *scopePlan) get(parent *frame) *frame {
	if sp.n == 0 {
		return parent
	}
	if sp.pooled {
		if v := sp.pool.Get(); v != nil {
			f := v.(*frame)
			f.parent = parent
			return f
		}
	}
	f := &frame{slots: make([]Value, sp.n), parent: parent}
	for i := range f.slots {
		f.slots[i] = unset
	}
	return f
}

func (sp *scopePlan) put(f *frame) {
	if sp.n == 0 || !sp.pooled {
		return
	}
	for i := range f.slots {
		f.slots[i] = unset
	}
	f.parent = nil
	sp.pool.Put(f)
}

// cscope is a compile-time scope: name -> slot index plus the chain to the
// enclosing scope (crossing function boundaries, for closures).
type cscope struct {
	names  map[string]int
	plan   *scopePlan
	parent *cscope
}

type compiler struct {
	scope *cscope
}

// slotRef addresses one candidate slot: up frames out, index idx.
type slotRef struct{ up, idx int }

// compiledFn is the compiled body of a user function; defFrame on the
// Function value supplies the closure chain.
type compiledFn struct {
	plan     *scopePlan
	paramIdx []int
	body     []cstmt
}

// program is a compiled script: one runner per top-level statement (so the
// traced path can wrap each in a span).
type program struct {
	plan  *scopePlan
	stmts []cstmt
	kinds []string
	lines []string
}

// hoistedNames lists, in first-appearance order, the names the tree-walker
// could define directly in a scope executing stmts: identifier assignment
// targets and func statement names at this statement level. Nested blocks
// (if/for/while bodies) get scopes of their own and are not descended into.
func hoistedNames(stmts []stmt) []string {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, s := range stmts {
		switch st := s.(type) {
		case *assignStmt:
			if id, ok := st.Target.(*identExpr); ok {
				add(id.Name)
			}
		case *funcStmt:
			add(st.Name)
		}
	}
	return names
}

// containsFunc reports whether any func statement occurs in the statement
// subtree — if so, frames of every enclosing scope can be captured by the
// resulting closure and must not be pooled.
func containsFunc(stmts []stmt) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *funcStmt:
			return true
		case *ifStmt:
			if containsFunc(st.Then) || containsFunc(st.Else) {
				return true
			}
		case *forStmt:
			if containsFunc(st.Body) {
				return true
			}
		case *whileStmt:
			if containsFunc(st.Body) {
				return true
			}
		}
	}
	return false
}

func (c *compiler) push(stmts []stmt, extra ...string) {
	names := map[string]int{}
	for _, n := range extra {
		if _, ok := names[n]; !ok {
			names[n] = len(names)
		}
	}
	for _, n := range hoistedNames(stmts) {
		if _, ok := names[n]; !ok {
			names[n] = len(names)
		}
	}
	plan := &scopePlan{n: len(names), pooled: !containsFunc(stmts)}
	c.scope = &cscope{names: names, plan: plan, parent: c.scope}
}

func (c *compiler) pop() *scopePlan {
	plan := c.scope.plan
	c.scope = c.scope.parent
	return plan
}

// resolve collects every candidate slot for name, innermost first. Only
// frame-bearing scopes count toward the up distance, matching the runtime
// parent chain (frameless scopes materialize nothing).
func (c *compiler) resolve(name string) []slotRef {
	var refs []slotRef
	up := 0
	for s := c.scope; s != nil; s = s.parent {
		if s.plan.n == 0 {
			continue
		}
		if idx, ok := s.names[name]; ok {
			refs = append(refs, slotRef{up: up, idx: idx})
		}
		up++
	}
	return refs
}

// compileSet builds the assignment path for a name, mirroring env.set: the
// innermost set candidate wins, then an existing global, then the name is
// defined in the current scope's hoisted slot.
func (c *compiler) compileSet(name string) func(in *Interp, f *frame, v Value) {
	refs := c.resolve(name)
	if len(refs) == 0 || refs[0].up != 0 {
		// Assignment targets and func names are always hoisted into the
		// current scope, so the innermost candidate is local by construction.
		panic("script: no local slot hoisted for " + name)
	}
	idx0 := refs[0].idx
	if len(refs) == 1 {
		return func(in *Interp, f *frame, v Value) {
			if f.slots[idx0] != unset {
				f.slots[idx0] = v
				return
			}
			if in.setGlobalIfExists(name, v) {
				return
			}
			f.slots[idx0] = v
		}
	}
	return func(in *Interp, f *frame, v Value) {
		for _, r := range refs {
			fr := f.at(r.up)
			if fr.slots[r.idx] != unset {
				fr.slots[r.idx] = v
				return
			}
		}
		if in.setGlobalIfExists(name, v) {
			return
		}
		f.slots[idx0] = v
	}
}

// guard prefixes a compiled statement with the per-statement step charge
// and budget/cancellation check, mirroring the tree-walker's exec prologue.
func guard(n node, body cstmt) cstmt {
	line, col := n.Line, n.Col
	return func(in *Interp, f *frame) (control, error) {
		in.steps++
		if in.MaxSteps > 0 || in.done != nil {
			if err := in.checkBudgetAt(line, col); err != nil {
				return control{}, err
			}
		}
		return body(in, f)
	}
}

func runBlock(stmts []cstmt, in *Interp, f *frame) (control, error) {
	for _, s := range stmts {
		ctl, err := s(in, f)
		if err != nil {
			return control{}, err
		}
		if ctl.kind != ctlNone {
			return ctl, nil
		}
	}
	return control{}, nil
}

func (c *compiler) compileStmts(stmts []stmt) []cstmt {
	out := make([]cstmt, len(stmts))
	for i, s := range stmts {
		out[i] = c.compileStmt(s)
	}
	return out
}

// compileBlock compiles a nested block ({...} of if/while) in a scope of
// its own, returning a runner that materializes the block frame per entry —
// the compiled analogue of execBlock(stmts, newEnv(e)).
func (c *compiler) compileBlock(stmts []stmt) func(in *Interp, f *frame) (control, error) {
	if len(stmts) == 0 {
		return func(in *Interp, f *frame) (control, error) { return control{}, nil }
	}
	c.push(stmts)
	body := c.compileStmts(stmts)
	plan := c.pop()
	if plan.n == 0 {
		if len(body) == 1 {
			return body[0]
		}
		return func(in *Interp, f *frame) (control, error) {
			return runBlock(body, in, f)
		}
	}
	return func(in *Interp, f *frame) (control, error) {
		bf := plan.get(f)
		ctl, err := runBlock(body, in, bf)
		plan.put(bf)
		return ctl, err
	}
}

func (c *compiler) compileFunc(st *funcStmt) *compiledFn {
	// One scope covers parameters and the body, exactly like the single
	// env the tree-walker builds in call().
	c.push(st.Body, st.Params...)
	paramIdx := make([]int, len(st.Params))
	for i, p := range st.Params {
		paramIdx[i] = c.scope.names[p]
	}
	body := c.compileStmts(st.Body)
	plan := c.pop()
	return &compiledFn{plan: plan, paramIdx: paramIdx, body: body}
}

// callCompiled invokes a compiled user function (arity already checked by
// call).
func (in *Interp) callCompiled(fn *Function, args []Value) (Value, error) {
	cf := fn.compiled
	f := cf.plan.get(fn.defFrame)
	for i, idx := range cf.paramIdx {
		f.slots[idx] = args[i]
	}
	ctl, err := runBlock(cf.body, in, f)
	cf.plan.put(f)
	if err != nil {
		return nil, err
	}
	if ctl.kind == ctlReturn {
		return ctl.val, nil
	}
	return nil, nil
}

func (c *compiler) compileStmt(s stmt) cstmt {
	switch st := s.(type) {
	case *assignStmt:
		valC := c.compileExpr(st.Value)
		switch target := st.Target.(type) {
		case *identExpr:
			set := c.compileSet(target.Name)
			return guard(st.node, func(in *Interp, f *frame) (control, error) {
				v, err := valC(in, f)
				if err != nil {
					return control{}, err
				}
				set(in, f, v)
				return control{}, nil
			})
		case *indexExpr:
			xC := c.compileExpr(target.X)
			iC := c.compileExpr(target.I)
			line := target.Line
			return guard(st.node, func(in *Interp, f *frame) (control, error) {
				v, err := valC(in, f)
				if err != nil {
					return control{}, err
				}
				container, err := xC(in, f)
				if err != nil {
					return control{}, err
				}
				idx, err := iC(in, f)
				if err != nil {
					return control{}, err
				}
				return control{}, setIndex(container, idx, v, line)
			})
		default: // unreachable: the parser admits only ident/index targets
			line := st.Line
			return guard(st.node, func(in *Interp, f *frame) (control, error) {
				if _, err := valC(in, f); err != nil {
					return control{}, err
				}
				return control{}, errAt(line, "invalid assignment target")
			})
		}
	case *exprStmt:
		xC := c.compileExpr(st.X)
		return guard(st.node, func(in *Interp, f *frame) (control, error) {
			_, err := xC(in, f)
			return control{}, err
		})
	case *ifStmt:
		condC := c.compileExpr(st.Cond)
		thenR := c.compileBlock(st.Then)
		elseR := c.compileBlock(st.Else)
		return guard(st.node, func(in *Interp, f *frame) (control, error) {
			cv, err := condC(in, f)
			if err != nil {
				return control{}, err
			}
			if truthy(cv) {
				return thenR(in, f)
			}
			return elseR(in, f)
		})
	case *whileStmt:
		condC := c.compileExpr(st.Cond)
		bodyR := c.compileBlock(st.Body)
		line, col := st.Line, st.Col
		return guard(st.node, func(in *Interp, f *frame) (control, error) {
			for {
				cv, err := condC(in, f)
				if err != nil {
					return control{}, err
				}
				if !truthy(cv) {
					return control{}, nil
				}
				ctl, err := bodyR(in, f)
				if err != nil {
					return control{}, err
				}
				if ctl.kind == ctlBreak {
					return control{}, nil
				}
				if ctl.kind == ctlReturn {
					return ctl, nil
				}
				// The tree-walker charges one extra step per while
				// iteration; keep the count and check position identical.
				in.steps++
				if in.MaxSteps > 0 || in.done != nil {
					if err := in.checkBudgetAt(line, col); err != nil {
						return control{}, err
					}
				}
			}
		})
	case *forStmt:
		iterC := c.compileExpr(st.Iter)
		var extra []string
		if st.Key != "" {
			extra = append(extra, st.Key)
		}
		extra = append(extra, st.Var)
		c.push(st.Body, extra...)
		keyIdx := -1
		if st.Key != "" {
			keyIdx = c.scope.names[st.Key]
		}
		varIdx := c.scope.names[st.Var]
		body := c.compileStmts(st.Body)
		plan := c.pop()
		line := st.Line
		return guard(st.node, func(in *Interp, f *frame) (control, error) {
			iv, err := iterC(in, f)
			if err != nil {
				return control{}, err
			}
			items, keys, err := iterate(iv, line)
			if err != nil {
				return control{}, err
			}
			if plan.pooled {
				// One pooled frame reused across iterations, slots cleared
				// between them — each iteration still starts with a fresh
				// scope, exactly like the tree-walker's per-iteration env.
				lf := plan.get(f)
				var out control
				var lerr error
				for i, item := range items {
					if i > 0 {
						for j := range lf.slots {
							lf.slots[j] = unset
						}
					}
					if keyIdx >= 0 {
						var kv Value
						if keys != nil {
							kv = keys[i]
						}
						lf.slots[keyIdx] = kv
					}
					lf.slots[varIdx] = item
					ctl, err := runBlock(body, in, lf)
					if err != nil {
						lerr = err
						break
					}
					if ctl.kind == ctlBreak {
						break
					}
					if ctl.kind == ctlReturn {
						out = ctl
						break
					}
				}
				plan.put(lf)
				return out, lerr
			}
			for i, item := range items {
				lf := plan.get(f)
				if keyIdx >= 0 {
					var kv Value
					if keys != nil {
						kv = keys[i]
					}
					lf.slots[keyIdx] = kv
				}
				lf.slots[varIdx] = item
				ctl, err := runBlock(body, in, lf)
				if err != nil {
					return control{}, err
				}
				if ctl.kind == ctlBreak {
					break
				}
				if ctl.kind == ctlReturn {
					return ctl, nil
				}
			}
			return control{}, nil
		})
	case *funcStmt:
		cf := c.compileFunc(st)
		set := c.compileSet(st.Name)
		name, params := st.Name, st.Params
		return guard(st.node, func(in *Interp, f *frame) (control, error) {
			set(in, f, &Function{Name: name, Params: params, compiled: cf, defFrame: f})
			return control{}, nil
		})
	case *returnStmt:
		if st.Value == nil {
			return guard(st.node, func(in *Interp, f *frame) (control, error) {
				return control{kind: ctlReturn}, nil
			})
		}
		vC := c.compileExpr(st.Value)
		return guard(st.node, func(in *Interp, f *frame) (control, error) {
			v, err := vC(in, f)
			if err != nil {
				return control{}, err
			}
			return control{kind: ctlReturn, val: v}, nil
		})
	case *breakStmt:
		return guard(st.node, func(in *Interp, f *frame) (control, error) {
			return control{kind: ctlBreak}, nil
		})
	case *continueStmt:
		return guard(st.node, func(in *Interp, f *frame) (control, error) {
			return control{kind: ctlContinue}, nil
		})
	}
	line, col := s.pos()
	return guard(node{line, col}, func(in *Interp, f *frame) (control, error) {
		return control{}, fmt.Errorf("script: unknown statement %T", s)
	})
}

func (c *compiler) compileExpr(x expr) cexpr {
	switch ex := x.(type) {
	case *numLit:
		v := boxFloat(ex.V)
		return func(*Interp, *frame) (Value, error) { return v, nil }
	case *strLit:
		var v Value = ex.V // boxed once, not on every evaluation
		return func(*Interp, *frame) (Value, error) { return v, nil }
	case *boolLit:
		v := ex.V
		return func(*Interp, *frame) (Value, error) { return v, nil }
	case *nilLit:
		return func(*Interp, *frame) (Value, error) { return nil, nil }
	case *listLit:
		items := make([]cexpr, len(ex.Items))
		for i, it := range ex.Items {
			items[i] = c.compileExpr(it)
		}
		return func(in *Interp, f *frame) (Value, error) {
			vals := make([]Value, len(items))
			for i, it := range items {
				v, err := it(in, f)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return &List{Items: vals}, nil
		}
	case *mapLit:
		keyCs := make([]cexpr, len(ex.Keys))
		valCs := make([]cexpr, len(ex.Vals))
		for i := range ex.Keys {
			keyCs[i] = c.compileExpr(ex.Keys[i])
			valCs[i] = c.compileExpr(ex.Vals[i])
		}
		return func(in *Interp, f *frame) (Value, error) {
			m := NewMap()
			for i := range keyCs {
				k, err := keyCs[i](in, f)
				if err != nil {
					return nil, err
				}
				v, err := valCs[i](in, f)
				if err != nil {
					return nil, err
				}
				m.Entries[ToString(k)] = v
			}
			return m, nil
		}
	case *identExpr:
		return c.compileIdent(ex)
	case *attrExpr:
		xC := c.compileExpr(ex.X)
		name, line := ex.Name, ex.Line
		return func(in *Interp, f *frame) (Value, error) {
			recv, err := xC(in, f)
			if err != nil {
				return nil, err
			}
			return in.attribute(recv, name, line)
		}
	case *indexExpr:
		xC := c.compileExpr(ex.X)
		iC := c.compileExpr(ex.I)
		line := ex.Line
		return func(in *Interp, f *frame) (Value, error) {
			cv, err := xC(in, f)
			if err != nil {
				return nil, err
			}
			iv, err := iC(in, f)
			if err != nil {
				return nil, err
			}
			return index(cv, iv, line)
		}
	case *callExpr:
		fnC := c.compileExpr(ex.Fn)
		argCs := make([]cexpr, len(ex.Args))
		for i, a := range ex.Args {
			argCs[i] = c.compileExpr(a)
		}
		line := ex.Line
		return func(in *Interp, f *frame) (Value, error) {
			fv, err := fnC(in, f)
			if err != nil {
				return nil, err
			}
			args := make([]Value, len(argCs))
			for i, a := range argCs {
				v, err := a(in, f)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			return in.call(fv, args, line)
		}
	case *unaryExpr:
		xC := c.compileExpr(ex.X)
		line := ex.Line
		switch ex.Op {
		case "-":
			return func(in *Interp, f *frame) (Value, error) {
				v, err := xC(in, f)
				if err != nil {
					return nil, err
				}
				n, ok := v.(float64)
				if !ok {
					return nil, errAt(line, "unary minus needs a number, got %s", typeName(v))
				}
				return boxFloat(-n), nil
			}
		case "not":
			return func(in *Interp, f *frame) (Value, error) {
				v, err := xC(in, f)
				if err != nil {
					return nil, err
				}
				return !truthy(v), nil
			}
		}
		op := ex.Op
		return func(in *Interp, f *frame) (Value, error) {
			if _, err := xC(in, f); err != nil {
				return nil, err
			}
			return nil, errAt(line, "unknown unary operator %q", op)
		}
	case *binExpr:
		return c.compileBin(ex)
	}
	return func(*Interp, *frame) (Value, error) {
		return nil, fmt.Errorf("script: unknown expression %T", x)
	}
}

func (c *compiler) compileIdent(ex *identExpr) cexpr {
	refs := c.resolve(ex.Name)
	name, line := ex.Name, ex.Line
	switch len(refs) {
	case 0:
		return func(in *Interp, f *frame) (Value, error) {
			if v, ok := in.globals[name]; ok {
				return v, nil
			}
			return nil, errAt(line, "undefined name %q", name)
		}
	case 1:
		up, idx := refs[0].up, refs[0].idx
		if up == 0 {
			return func(in *Interp, f *frame) (Value, error) {
				if v := f.slots[idx]; v != unset {
					return v, nil
				}
				if v, ok := in.globals[name]; ok {
					return v, nil
				}
				return nil, errAt(line, "undefined name %q", name)
			}
		}
		return func(in *Interp, f *frame) (Value, error) {
			if v := f.at(up).slots[idx]; v != unset {
				return v, nil
			}
			if v, ok := in.globals[name]; ok {
				return v, nil
			}
			return nil, errAt(line, "undefined name %q", name)
		}
	default:
		return func(in *Interp, f *frame) (Value, error) {
			for _, r := range refs {
				if v := f.at(r.up).slots[r.idx]; v != unset {
					return v, nil
				}
			}
			if v, ok := in.globals[name]; ok {
				return v, nil
			}
			return nil, errAt(line, "undefined name %q", name)
		}
	}
}

func (c *compiler) compileBin(ex *binExpr) cexpr {
	op, line := ex.Op, ex.Line
	lC := c.compileExpr(ex.L)
	rC := c.compileExpr(ex.R)
	switch op {
	case "and":
		return func(in *Interp, f *frame) (Value, error) {
			l, err := lC(in, f)
			if err != nil {
				return nil, err
			}
			if !truthy(l) {
				return false, nil
			}
			r, err := rC(in, f)
			if err != nil {
				return nil, err
			}
			return truthy(r), nil
		}
	case "or":
		return func(in *Interp, f *frame) (Value, error) {
			l, err := lC(in, f)
			if err != nil {
				return nil, err
			}
			if truthy(l) {
				return true, nil
			}
			r, err := rC(in, f)
			if err != nil {
				return nil, err
			}
			return truthy(r), nil
		}
	}
	// Pre-dispatched float-float fast path; any other operand shape falls
	// back to the shared applyBin so error texts cannot diverge.
	var fast func(a, b float64) (Value, error)
	switch op {
	case "+":
		fast = func(a, b float64) (Value, error) { return boxFloat(a + b), nil }
	case "-":
		fast = func(a, b float64) (Value, error) { return boxFloat(a - b), nil }
	case "*":
		fast = func(a, b float64) (Value, error) { return boxFloat(a * b), nil }
	case "/":
		fast = func(a, b float64) (Value, error) {
			if b == 0 {
				return nil, errAt(line, "division by zero")
			}
			return boxFloat(a / b), nil
		}
	case "%":
		fast = func(a, b float64) (Value, error) {
			if b == 0 {
				return nil, errAt(line, "modulo by zero")
			}
			// Integer operands take an exact integer remainder — Go's %
			// and math.Mod agree for integral values (sign of the
			// dividend), and the int path avoids math.Mod's frexp/ldexp
			// cost on the hot loop-counter case.
			if a == math.Trunc(a) && b == math.Trunc(b) &&
				a >= -1<<53 && a <= 1<<53 && b >= -1<<53 && b <= 1<<53 {
				return boxFloat(float64(int64(a) % int64(b))), nil
			}
			return boxFloat(math.Mod(a, b)), nil
		}
	case "<":
		fast = func(a, b float64) (Value, error) { return a < b, nil }
	case ">":
		fast = func(a, b float64) (Value, error) { return a > b, nil }
	case "<=":
		fast = func(a, b float64) (Value, error) { return a <= b, nil }
	case ">=":
		fast = func(a, b float64) (Value, error) { return a >= b, nil }
	case "==":
		fast = func(a, b float64) (Value, error) { return a == b, nil }
	case "!=":
		fast = func(a, b float64) (Value, error) { return a != b, nil }
	}
	if fast != nil {
		return func(in *Interp, f *frame) (Value, error) {
			l, err := lC(in, f)
			if err != nil {
				return nil, err
			}
			r, err := rC(in, f)
			if err != nil {
				return nil, err
			}
			if ln, ok := l.(float64); ok {
				if rn, ok := r.(float64); ok {
					return fast(ln, rn)
				}
			}
			return applyBin(op, l, r, line)
		}
	}
	return func(in *Interp, f *frame) (Value, error) {
		l, err := lC(in, f)
		if err != nil {
			return nil, err
		}
		r, err := rC(in, f)
		if err != nil {
			return nil, err
		}
		return applyBin(op, l, r, line)
	}
}

func compileProgram(stmts []stmt) *program {
	c := &compiler{}
	c.push(stmts)
	p := &program{
		stmts: make([]cstmt, len(stmts)),
		kinds: make([]string, len(stmts)),
		lines: make([]string, len(stmts)),
	}
	for i, s := range stmts {
		kind, line := stmtInfo(s)
		p.kinds[i] = kind
		p.lines[i] = strconv.Itoa(line)
		p.stmts[i] = c.compileStmt(s)
	}
	p.plan = c.pop()
	return p
}

// maxCachedPrograms bounds the per-interpreter compiled-program cache; an
// embedder cycling through unbounded generated sources drops the cache
// rather than growing without limit.
const maxCachedPrograms = 64

// Run parses and executes src: parse+compile once per distinct source, then
// execute the closure program against a pooled top frame. When the context
// installed with SetContext carries an obs tracer, each top-level statement
// executes under a `script.stmt` span (statement kind and line as
// attributes) — top-level only, so a loop of a million iterations costs one
// span, not a million.
func (in *Interp) Run(src string) error {
	prog := in.progs[src]
	if prog == nil {
		stmts, err := parse(src)
		if err != nil {
			return err
		}
		prog = compileProgram(stmts)
		if len(in.progs) >= maxCachedPrograms {
			in.progs = nil
		}
		if in.progs == nil {
			in.progs = make(map[string]*program)
		}
		in.progs[src] = prog
	}
	in.steps = 0
	base := in.ctx
	if base == nil {
		base = context.Background()
	}
	f := prog.plan.get(nil)
	var runErr error
	if obs.TracerFrom(base) == nil {
		for _, s := range prog.stmts {
			ctl, err := s(in, f)
			if err != nil {
				runErr = err
				break
			}
			if ctl.kind != ctlNone {
				break
			}
		}
	} else {
		for i, s := range prog.stmts {
			sctx, sp := obs.StartSpan(base, "script.stmt",
				"stmt", prog.kinds[i], "line", prog.lines[i])
			in.curCtx = sctx
			ctl, err := s(in, f)
			sp.SetError(err)
			sp.End()
			in.curCtx = nil
			if err != nil {
				runErr = err
				break
			}
			if ctl.kind != ctlNone {
				break
			}
		}
	}
	prog.plan.put(f)
	return runErr
}
