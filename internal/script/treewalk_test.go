package script

// The tree-walking evaluator: the script engine the closure compiler
// (compile.go) replaced, kept here as the differential oracle. It executes
// the parsed AST directly against chained env maps and shares every value
// helper (applyBin, setIndex, iterate, attribute, index, the builtins, the
// step budget) with the compiled engine, so the two can differ only in
// scoping and control flow — which is what differential_test.go compares.

import "fmt"

type env struct {
	vars   map[string]Value
	parent *env
}

func newEnv(parent *env) *env { return &env{vars: make(map[string]Value), parent: parent} }

func (e *env) get(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// set assigns to an existing binding in any enclosing scope, or defines the
// name in the current scope.
func (e *env) set(name string, v Value) {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return
		}
	}
	e.vars[name] = v
}

func (e *env) define(name string, v Value) { e.vars[name] = v }

// treeFn is the tree-walked half of a user function: the production
// Function value carries only a compiled body, so the oracle keeps the AST
// body and defining env of the functions it creates on the side.
type treeFn struct {
	body    []stmt
	closure *env
}

type treeWalker struct {
	in  *Interp
	fns map[*Function]treeFn
}

// runTreeWalk is the oracle's Interp.Run: same parse, same globals, same
// step accounting, executed by walking the AST.
func runTreeWalk(in *Interp, src string) error {
	stmts, err := parse(src)
	if err != nil {
		return err
	}
	in.steps = 0
	tw := &treeWalker{in: in, fns: make(map[*Function]treeFn)}
	_, err = tw.execBlock(stmts, newEnv(&env{vars: in.globals}))
	return err
}

// call runs a function this walker defined by walking its body; builtins
// (and anything else) go through the engine's call.
func (tw *treeWalker) call(fn Value, args []Value, line int) (Value, error) {
	f, _ := fn.(*Function)
	tf, ok := tw.fns[f]
	if !ok {
		return tw.in.call(fn, args, line)
	}
	if len(args) != len(f.Params) {
		return nil, errAt(line, "%s expects %d arguments, got %d", f.Name, len(f.Params), len(args))
	}
	scope := newEnv(tf.closure)
	for i, p := range f.Params {
		scope.define(p, args[i])
	}
	c, err := tw.execBlock(tf.body, scope)
	if err != nil {
		return nil, err
	}
	if c.kind == ctlReturn {
		return c.val, nil
	}
	return nil, nil
}

func (tw *treeWalker) execBlock(stmts []stmt, e *env) (control, error) {
	for _, s := range stmts {
		c, err := tw.exec(s, e)
		if err != nil {
			return control{}, err
		}
		if c.kind != ctlNone {
			return c, nil
		}
	}
	return control{}, nil
}

func (tw *treeWalker) exec(s stmt, e *env) (control, error) {
	tw.in.steps++
	line, col := s.pos()
	if err := tw.in.checkBudgetAt(line, col); err != nil {
		return control{}, err
	}
	switch st := s.(type) {
	case *assignStmt:
		v, err := tw.eval(st.Value, e)
		if err != nil {
			return control{}, err
		}
		switch target := st.Target.(type) {
		case *identExpr:
			e.set(target.Name, v)
		case *indexExpr:
			return control{}, tw.assignIndex(target, v, e)
		default:
			return control{}, errAt(st.Line, "invalid assignment target")
		}
		return control{}, nil
	case *exprStmt:
		_, err := tw.eval(st.X, e)
		return control{}, err
	case *ifStmt:
		cond, err := tw.eval(st.Cond, e)
		if err != nil {
			return control{}, err
		}
		if truthy(cond) {
			return tw.execBlock(st.Then, newEnv(e))
		}
		return tw.execBlock(st.Else, newEnv(e))
	case *whileStmt:
		for {
			cond, err := tw.eval(st.Cond, e)
			if err != nil {
				return control{}, err
			}
			if !truthy(cond) {
				return control{}, nil
			}
			c, err := tw.execBlock(st.Body, newEnv(e))
			if err != nil {
				return control{}, err
			}
			if c.kind == ctlBreak {
				return control{}, nil
			}
			if c.kind == ctlReturn {
				return c, nil
			}
			tw.in.steps++
			if err := tw.in.checkBudgetAt(st.Line, st.Col); err != nil {
				return control{}, err
			}
		}
	case *forStmt:
		iter, err := tw.eval(st.Iter, e)
		if err != nil {
			return control{}, err
		}
		items, keys, err := iterate(iter, st.Line)
		if err != nil {
			return control{}, err
		}
		for i, item := range items {
			scope := newEnv(e)
			if st.Key != "" {
				var kv Value
				if keys != nil {
					kv = keys[i]
				}
				scope.define(st.Key, kv)
			}
			scope.define(st.Var, item)
			c, err := tw.execBlock(st.Body, scope)
			if err != nil {
				return control{}, err
			}
			if c.kind == ctlBreak {
				break
			}
			if c.kind == ctlReturn {
				return c, nil
			}
		}
		return control{}, nil
	case *funcStmt:
		fn := &Function{Name: st.Name, Params: st.Params}
		tw.fns[fn] = treeFn{body: st.Body, closure: e}
		e.set(st.Name, fn)
		return control{}, nil
	case *returnStmt:
		var v Value
		if st.Value != nil {
			var err error
			v, err = tw.eval(st.Value, e)
			if err != nil {
				return control{}, err
			}
		}
		return control{kind: ctlReturn, val: v}, nil
	case *breakStmt:
		return control{kind: ctlBreak}, nil
	case *continueStmt:
		return control{kind: ctlContinue}, nil
	}
	return control{}, fmt.Errorf("script: unknown statement %T", s)
}

func (tw *treeWalker) assignIndex(target *indexExpr, v Value, e *env) error {
	container, err := tw.eval(target.X, e)
	if err != nil {
		return err
	}
	idx, err := tw.eval(target.I, e)
	if err != nil {
		return err
	}
	return setIndex(container, idx, v, target.Line)
}

func (tw *treeWalker) eval(x expr, e *env) (Value, error) {
	switch ex := x.(type) {
	case *numLit:
		return ex.V, nil
	case *strLit:
		return ex.V, nil
	case *boolLit:
		return ex.V, nil
	case *nilLit:
		return nil, nil
	case *listLit:
		items := make([]Value, len(ex.Items))
		for i, it := range ex.Items {
			v, err := tw.eval(it, e)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &List{Items: items}, nil
	case *mapLit:
		m := NewMap()
		for i := range ex.Keys {
			k, err := tw.eval(ex.Keys[i], e)
			if err != nil {
				return nil, err
			}
			v, err := tw.eval(ex.Vals[i], e)
			if err != nil {
				return nil, err
			}
			m.Entries[ToString(k)] = v
		}
		return m, nil
	case *identExpr:
		if v, ok := e.get(ex.Name); ok {
			return v, nil
		}
		return nil, errAt(ex.Line, "undefined name %q", ex.Name)
	case *attrExpr:
		recv, err := tw.eval(ex.X, e)
		if err != nil {
			return nil, err
		}
		return tw.in.attribute(recv, ex.Name, ex.Line)
	case *indexExpr:
		c, err := tw.eval(ex.X, e)
		if err != nil {
			return nil, err
		}
		i, err := tw.eval(ex.I, e)
		if err != nil {
			return nil, err
		}
		return index(c, i, ex.Line)
	case *callExpr:
		fn, err := tw.eval(ex.Fn, e)
		if err != nil {
			return nil, err
		}
		args := make([]Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := tw.eval(a, e)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return tw.call(fn, args, ex.Line)
	case *unaryExpr:
		v, err := tw.eval(ex.X, e)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "-":
			n, ok := v.(float64)
			if !ok {
				return nil, errAt(ex.Line, "unary minus needs a number, got %s", typeName(v))
			}
			return -n, nil
		case "not":
			return !truthy(v), nil
		}
		return nil, errAt(ex.Line, "unknown unary operator %q", ex.Op)
	case *binExpr:
		return tw.evalBin(ex, e)
	}
	return nil, fmt.Errorf("script: unknown expression %T", x)
}

func (tw *treeWalker) evalBin(ex *binExpr, e *env) (Value, error) {
	// Short-circuit logic.
	if ex.Op == "and" || ex.Op == "or" {
		l, err := tw.eval(ex.L, e)
		if err != nil {
			return nil, err
		}
		if ex.Op == "and" && !truthy(l) {
			return false, nil
		}
		if ex.Op == "or" && truthy(l) {
			return true, nil
		}
		r, err := tw.eval(ex.R, e)
		if err != nil {
			return nil, err
		}
		return truthy(r), nil
	}
	l, err := tw.eval(ex.L, e)
	if err != nil {
		return nil, err
	}
	r, err := tw.eval(ex.R, e)
	if err != nil {
		return nil, err
	}
	return applyBin(ex.Op, l, r, ex.Line)
}
