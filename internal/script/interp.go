package script

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"perfknow/internal/obs"
)

// Value is any script value: float64, string, bool, nil, *List, *Map,
// *Builtin, *Function, or a host Object.
type Value = any

// List is a mutable ordered collection.
type List struct{ Items []Value }

// Map is a string-keyed dictionary.
type Map struct{ Entries map[string]Value }

// NewList builds a list value.
func NewList(items ...Value) *List { return &List{Items: items} }

// NewMap builds an empty map value.
func NewMap() *Map { return &Map{Entries: make(map[string]Value)} }

// Object is the interface host types implement to be scriptable: Member
// resolves attribute access (returning data values or *Builtin methods).
type Object interface {
	TypeName() string
	Member(name string) (Value, bool)
}

// Builtin is a host function callable from scripts.
type Builtin struct {
	Name string
	Fn   func(args []Value) (Value, error)
}

// NewBuiltin wraps a Go function as a script callable.
func NewBuiltin(name string, fn func(args []Value) (Value, error)) *Builtin {
	return &Builtin{Name: name, Fn: fn}
}

// Module is a simple namespace Object backed by a map — used to expose API
// groups like Utilities.getTrial.
type Module struct {
	Name    string
	Members map[string]Value
}

// TypeName implements Object.
func (m *Module) TypeName() string { return "module " + m.Name }

// Member implements Object.
func (m *Module) Member(name string) (Value, bool) {
	v, ok := m.Members[name]
	return v, ok
}

// Function is a user-defined script function. Tree-walked functions carry
// Body/Closure; compiled functions carry compiled/defFrame instead. Interp.call
// dispatches on whichever is present, so functions defined under one engine
// can be invoked from the other (globals persist across Run calls, and the
// engine flag may be flipped between them).
type Function struct {
	Name    string
	Params  []string
	Body    []stmt
	Closure *env

	compiled *compiledFn
	defFrame *frame // frame chain captured at the definition site
}

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

// setIfExists assigns to an existing binding in this scope chain and reports
// whether one was found; unlike set it never defines the name.
func (e *env) setIfExists(name string, v Value) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}

// Interp runs scripts. Globals persist across Run calls, so an embedding
// application can bind its API once and execute many scripts.
//
// By default Run lowers the parsed AST to Go closures (see compile.go) with
// names resolved to frame slots at compile time; setting TreeWalk executes
// the AST directly instead. The two engines are behaviorally identical —
// the tree-walker is kept as the differential-testing oracle.
type Interp struct {
	globals *env
	Stdout  io.Writer
	// MaxSteps bounds statement executions to catch runaway scripts;
	// 0 means no limit.
	MaxSteps int
	// TreeWalk selects the AST-walking evaluator instead of the closure
	// compiler. Both count steps, trace, and fail identically.
	TreeWalk bool
	steps    int
	ctx      context.Context
	done     <-chan struct{}
	// progs caches compiled programs by source text so repeated Run calls
	// (the common embedding pattern: one session, many scripts) skip the
	// parse and compile entirely.
	progs map[string]*program
	// curCtx is the context of the top-level statement span currently
	// executing, when tracing is on; Context() hands it to host bindings so
	// their spans (repository I/O, analysis ops) nest under the statement.
	curCtx context.Context
}

// Steps reports how many statements the last (or current) Run has executed —
// both engines maintain the identical count, which the differential harness
// asserts.
func (in *Interp) Steps() int { return in.steps }

// SetContext arranges for script execution to stop with ctx.Err() once ctx
// is cancelled or times out. Cancellation is cooperative: it is checked at
// every statement and loop iteration, so even a `while true` script
// terminates promptly. A nil ctx removes the binding.
func (in *Interp) SetContext(ctx context.Context) {
	in.ctx = ctx
	if ctx != nil {
		in.done = ctx.Done()
	} else {
		in.done = nil
	}
}

// checkBudgetAt enforces the step bound and cooperative cancellation; it is
// called once per executed statement (and once per while-loop iteration).
// The position of the statement being charged is carried into the error so
// a budget blow-up or cancellation points at the offending source location.
func (in *Interp) checkBudgetAt(line, col int) error {
	if in.MaxSteps > 0 && in.steps > in.MaxSteps {
		return fmt.Errorf("script: line %d, col %d: execution exceeded %d steps", line, col, in.MaxSteps)
	}
	if in.done != nil {
		select {
		case <-in.done:
			return fmt.Errorf("script: line %d, col %d: cancelled: %w", line, col, in.ctx.Err())
		default:
		}
	}
	return nil
}

// New builds an interpreter with the language builtins installed.
func New() *Interp {
	in := &Interp{globals: newEnv(nil), Stdout: os.Stdout}
	in.installBuiltins()
	return in
}

// SetGlobal binds a name in the global scope (host API injection).
func (in *Interp) SetGlobal(name string, v Value) { in.globals.define(name, v) }

// Context returns the context host bindings should use for work done on
// behalf of the running script: the current top-level statement's span
// context when tracing is on, else the context from SetContext, else
// Background. Never nil.
func (in *Interp) Context() context.Context {
	if in.curCtx != nil {
		return in.curCtx
	}
	if in.ctx != nil {
		return in.ctx
	}
	return context.Background()
}

// Run parses and executes src. When the context installed with SetContext
// carries an obs tracer, each top-level statement executes under a
// `script.stmt` span (statement kind and line as attributes) — top-level
// only, so a loop of a million iterations costs one span, not a million.
func (in *Interp) Run(src string) error {
	if !in.TreeWalk {
		return in.runCompiled(src)
	}
	stmts, err := parse(src)
	if err != nil {
		return err
	}
	in.steps = 0
	e := newEnv(in.globals)
	base := in.ctx
	if base == nil {
		base = context.Background()
	}
	if obs.TracerFrom(base) == nil {
		_, err = in.execBlock(stmts, e)
		return err
	}
	for _, s := range stmts {
		kind, line := stmtInfo(s)
		sctx, sp := obs.StartSpan(base, "script.stmt",
			"stmt", kind, "line", strconv.Itoa(line))
		in.curCtx = sctx
		c, err := in.exec(s, e)
		sp.SetError(err)
		sp.End()
		in.curCtx = nil
		if err != nil {
			return err
		}
		if c.kind != ctlNone {
			break
		}
	}
	return nil
}

// stmtInfo labels a statement for its trace span.
func stmtInfo(s stmt) (kind string, line int) {
	switch st := s.(type) {
	case *assignStmt:
		return "assign", st.Line
	case *exprStmt:
		if call, ok := st.X.(*callExpr); ok {
			if id, ok := call.Fn.(*identExpr); ok {
				return "call " + id.Name, st.Line
			}
			if attr, ok := call.Fn.(*attrExpr); ok {
				return "call ." + attr.Name, st.Line
			}
		}
		return "expr", st.Line
	case *ifStmt:
		return "if", st.Line
	case *forStmt:
		return "for", st.Line
	case *whileStmt:
		return "while", st.Line
	case *funcStmt:
		return "func " + st.Name, st.Line
	case *returnStmt:
		return "return", st.Line
	case *breakStmt:
		return "break", st.Line
	case *continueStmt:
		return "continue", st.Line
	}
	return "stmt", 0
}

// RunFile executes a script file.
func (in *Interp) RunFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("script: %w", err)
	}
	if err := in.Run(string(data)); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// control-flow signals.
type ctlKind int

const (
	ctlNone ctlKind = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

type control struct {
	kind ctlKind
	val  Value
}

func (in *Interp) execBlock(stmts []stmt, e *env) (control, error) {
	for _, s := range stmts {
		c, err := in.exec(s, e)
		if err != nil {
			return control{}, err
		}
		if c.kind != ctlNone {
			return c, nil
		}
	}
	return control{}, nil
}

func (in *Interp) exec(s stmt, e *env) (control, error) {
	in.steps++
	line, col := s.pos()
	if err := in.checkBudgetAt(line, col); err != nil {
		return control{}, err
	}
	switch st := s.(type) {
	case *assignStmt:
		v, err := in.eval(st.Value, e)
		if err != nil {
			return control{}, err
		}
		switch target := st.Target.(type) {
		case *identExpr:
			e.set(target.Name, v)
		case *indexExpr:
			return control{}, in.assignIndex(target, v, e)
		default:
			return control{}, errAt(st.Line, "invalid assignment target")
		}
		return control{}, nil
	case *exprStmt:
		_, err := in.eval(st.X, e)
		return control{}, err
	case *ifStmt:
		cond, err := in.eval(st.Cond, e)
		if err != nil {
			return control{}, err
		}
		if truthy(cond) {
			return in.execBlock(st.Then, newEnv(e))
		}
		return in.execBlock(st.Else, newEnv(e))
	case *whileStmt:
		for {
			cond, err := in.eval(st.Cond, e)
			if err != nil {
				return control{}, err
			}
			if !truthy(cond) {
				return control{}, nil
			}
			c, err := in.execBlock(st.Body, newEnv(e))
			if err != nil {
				return control{}, err
			}
			if c.kind == ctlBreak {
				return control{}, nil
			}
			if c.kind == ctlReturn {
				return c, nil
			}
			in.steps++
			if err := in.checkBudgetAt(st.Line, st.Col); err != nil {
				return control{}, err
			}
		}
	case *forStmt:
		iter, err := in.eval(st.Iter, e)
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
			c, err := in.execBlock(st.Body, scope)
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
		e.set(st.Name, &Function{Name: st.Name, Params: st.Params, Body: st.Body, Closure: e})
		return control{}, nil
	case *returnStmt:
		var v Value
		if st.Value != nil {
			var err error
			v, err = in.eval(st.Value, e)
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

func (in *Interp) assignIndex(target *indexExpr, v Value, e *env) error {
	container, err := in.eval(target.X, e)
	if err != nil {
		return err
	}
	idx, err := in.eval(target.I, e)
	if err != nil {
		return err
	}
	return setIndex(container, idx, v, target.Line)
}

// setIndex stores v at container[idx]; shared by both engines so the error
// texts cannot drift apart.
func setIndex(container, idx, v Value, line int) error {
	switch c := container.(type) {
	case *List:
		i, ok := idx.(float64)
		if !ok {
			return errAt(line, "list index must be a number")
		}
		n := int(i)
		if n < 0 || n >= len(c.Items) {
			return errAt(line, "list index %d out of range [0,%d)", n, len(c.Items))
		}
		c.Items[n] = v
		return nil
	case *Map:
		c.Entries[ToString(idx)] = v
		return nil
	}
	return errAt(line, "cannot index-assign into %s", typeName(container))
}

func iterate(v Value, line int) (items []Value, keys []Value, err error) {
	switch c := v.(type) {
	case *List:
		// Lists have no keys; callers treat a nil keys slice as all-nil
		// key values, so the hot list case allocates nothing.
		return c.Items, nil, nil
	case *Map:
		ks := make([]string, 0, len(c.Entries))
		for k := range c.Entries {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			keys = append(keys, k)
			items = append(items, c.Entries[k])
		}
		return items, keys, nil
	case string:
		for i, r := range c {
			keys = append(keys, float64(i))
			items = append(items, string(r))
		}
		return items, keys, nil
	}
	return nil, nil, errAt(line, "cannot iterate over %s", typeName(v))
}

func (in *Interp) eval(x expr, e *env) (Value, error) {
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
			v, err := in.eval(it, e)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &List{Items: items}, nil
	case *mapLit:
		m := NewMap()
		for i := range ex.Keys {
			k, err := in.eval(ex.Keys[i], e)
			if err != nil {
				return nil, err
			}
			v, err := in.eval(ex.Vals[i], e)
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
		recv, err := in.eval(ex.X, e)
		if err != nil {
			return nil, err
		}
		return attribute(recv, ex.Name, ex.Line)
	case *indexExpr:
		c, err := in.eval(ex.X, e)
		if err != nil {
			return nil, err
		}
		i, err := in.eval(ex.I, e)
		if err != nil {
			return nil, err
		}
		return index(c, i, ex.Line)
	case *callExpr:
		fn, err := in.eval(ex.Fn, e)
		if err != nil {
			return nil, err
		}
		args := make([]Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := in.eval(a, e)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return in.call(fn, args, ex.Line)
	case *unaryExpr:
		v, err := in.eval(ex.X, e)
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
		return in.evalBin(ex, e)
	}
	return nil, fmt.Errorf("script: unknown expression %T", x)
}

func (in *Interp) evalBin(ex *binExpr, e *env) (Value, error) {
	// Short-circuit logic.
	if ex.Op == "and" || ex.Op == "or" {
		l, err := in.eval(ex.L, e)
		if err != nil {
			return nil, err
		}
		if ex.Op == "and" && !truthy(l) {
			return false, nil
		}
		if ex.Op == "or" && truthy(l) {
			return true, nil
		}
		r, err := in.eval(ex.R, e)
		if err != nil {
			return nil, err
		}
		return truthy(r), nil
	}
	l, err := in.eval(ex.L, e)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(ex.R, e)
	if err != nil {
		return nil, err
	}
	return applyBin(ex.Op, l, r, ex.Line)
}

// applyBin applies a non-short-circuit binary operator to two evaluated
// operands. Both engines route through it, so operator semantics and error
// texts are identical by construction.
func applyBin(op string, l, r Value, line int) (Value, error) {
	switch op {
	case "+":
		if ls, ok := l.(string); ok {
			return ls + ToString(r), nil
		}
		if rs, ok := r.(string); ok {
			return ToString(l) + rs, nil
		}
		if ll, ok := l.(*List); ok {
			if rl, ok := r.(*List); ok {
				return &List{Items: append(append([]Value{}, ll.Items...), rl.Items...)}, nil
			}
		}
	case "==":
		return equal(l, r), nil
	case "!=":
		return !equal(l, r), nil
	}
	ln, lok := l.(float64)
	rn, rok := r.(float64)
	if !lok || !rok {
		return nil, errAt(line, "operator %q needs numbers, got %s and %s", op, typeName(l), typeName(r))
	}
	switch op {
	case "+":
		return boxFloat(ln + rn), nil
	case "-":
		return boxFloat(ln - rn), nil
	case "*":
		return boxFloat(ln * rn), nil
	case "/":
		if rn == 0 {
			return nil, errAt(line, "division by zero")
		}
		return boxFloat(ln / rn), nil
	case "%":
		if rn == 0 {
			return nil, errAt(line, "modulo by zero")
		}
		return boxFloat(math.Mod(ln, rn)), nil
	case "<":
		return ln < rn, nil
	case ">":
		return ln > rn, nil
	case "<=":
		return ln <= rn, nil
	case ">=":
		return ln >= rn, nil
	}
	return nil, errAt(line, "unknown operator %q", op)
}

func (in *Interp) call(fn Value, args []Value, line int) (Value, error) {
	switch f := fn.(type) {
	case *Builtin:
		v, err := f.Fn(args)
		if err != nil {
			return nil, errAt(line, "%s: %s", f.Name, err)
		}
		return v, nil
	case *Function:
		if len(args) != len(f.Params) {
			return nil, errAt(line, "%s expects %d arguments, got %d", f.Name, len(f.Params), len(args))
		}
		if f.compiled != nil {
			return in.callCompiled(f, args)
		}
		scope := newEnv(f.Closure)
		for i, p := range f.Params {
			scope.define(p, args[i])
		}
		c, err := in.execBlock(f.Body, scope)
		if err != nil {
			return nil, err
		}
		if c.kind == ctlReturn {
			return c.val, nil
		}
		return nil, nil
	}
	return nil, errAt(line, "%s is not callable", typeName(fn))
}

func attribute(recv Value, name string, line int) (Value, error) {
	switch r := recv.(type) {
	case Object:
		if v, ok := r.Member(name); ok {
			return v, nil
		}
		return nil, errAt(line, "%s has no member %q", r.TypeName(), name)
	case *Map:
		if v, ok := r.Entries[name]; ok {
			return v, nil
		}
		return nil, errAt(line, "map has no key %q", name)
	case *List:
		switch name {
		case "length":
			return float64(len(r.Items)), nil
		}
	}
	return nil, errAt(line, "%s has no attributes", typeName(recv))
}

func index(c, i Value, line int) (Value, error) {
	switch cc := c.(type) {
	case *List:
		n, ok := i.(float64)
		if !ok {
			return nil, errAt(line, "list index must be a number")
		}
		idx := int(n)
		if idx < 0 || idx >= len(cc.Items) {
			return nil, errAt(line, "list index %d out of range [0,%d)", idx, len(cc.Items))
		}
		return cc.Items[idx], nil
	case *Map:
		v, ok := cc.Entries[ToString(i)]
		if !ok {
			return nil, nil
		}
		return v, nil
	case string:
		n, ok := i.(float64)
		if !ok {
			return nil, errAt(line, "string index must be a number")
		}
		idx := int(n)
		if idx < 0 || idx >= len(cc) {
			return nil, errAt(line, "string index %d out of range", idx)
		}
		return string(cc[idx]), nil
	}
	return nil, errAt(line, "cannot index %s", typeName(c))
}

func errAt(line int, format string, args ...any) error {
	return fmt.Errorf("script: line %d: %s", line, fmt.Sprintf(format, args...))
}

func truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case float64:
		return x != 0
	case string:
		return x != ""
	case *List:
		return len(x.Items) > 0
	case *Map:
		return len(x.Entries) > 0
	}
	return true
}

func equal(l, r Value) bool {
	if ln, ok := l.(float64); ok {
		if rn, ok := r.(float64); ok {
			return ln == rn
		}
	}
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			return ls == rs
		}
	}
	if lb, ok := l.(bool); ok {
		if rb, ok := r.(bool); ok {
			return lb == rb
		}
	}
	if l == nil && r == nil {
		return true
	}
	return l == r // pointer identity for lists/maps/objects
}

func typeName(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case *List:
		return "list"
	case *Map:
		return "map"
	case *Builtin:
		return "builtin " + x.Name
	case *Function:
		return "function " + x.Name
	case Object:
		return x.TypeName()
	}
	return fmt.Sprintf("%T", v)
}

// ToString renders any script value as a display string.
func ToString(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', 6, 64)
	case *List:
		parts := make([]string, len(x.Items))
		for i, it := range x.Items {
			parts[i] = ToString(it)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *Map:
		keys := make([]string, 0, len(x.Entries))
		for k := range x.Entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ": " + ToString(x.Entries[k])
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case Object:
		return "<" + x.TypeName() + ">"
	case *Builtin:
		return "<builtin " + x.Name + ">"
	case *Function:
		return "<function " + x.Name + ">"
	}
	return fmt.Sprintf("%v", v)
}

// ToFloat coerces a script value to a number.
func ToFloat(v Value) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	case string:
		f, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, fmt.Errorf("cannot convert %q to number", x)
		}
		return f, nil
	}
	return 0, fmt.Errorf("cannot convert %s to number", typeName(v))
}

func (in *Interp) installBuiltins() {
	in.SetGlobal("print", NewBuiltin("print", func(args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = ToString(a)
		}
		fmt.Fprintln(in.Stdout, strings.Join(parts, " "))
		return nil, nil
	}))
	in.SetGlobal("len", NewBuiltin("len", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("len expects 1 argument")
		}
		switch x := args[0].(type) {
		case *List:
			return float64(len(x.Items)), nil
		case *Map:
			return float64(len(x.Entries)), nil
		case string:
			return float64(len(x)), nil
		}
		return nil, fmt.Errorf("len of %s", typeName(args[0]))
	}))
	in.SetGlobal("range", NewBuiltin("range", func(args []Value) (Value, error) {
		var lo, hi float64
		switch len(args) {
		case 1:
			v, err := ToFloat(args[0])
			if err != nil {
				return nil, err
			}
			hi = v
		case 2:
			v1, err := ToFloat(args[0])
			if err != nil {
				return nil, err
			}
			v2, err := ToFloat(args[1])
			if err != nil {
				return nil, err
			}
			lo, hi = v1, v2
		default:
			return nil, fmt.Errorf("range expects 1 or 2 arguments")
		}
		out := NewList()
		if n := hi - lo; n > 0 && n < 1<<24 {
			out.Items = make([]Value, 0, int(math.Ceil(n)))
		}
		for i := lo; i < hi; i++ {
			out.Items = append(out.Items, boxFloat(i))
		}
		return out, nil
	}))
	in.SetGlobal("append", NewBuiltin("append", func(args []Value) (Value, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("append expects a list and values")
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, fmt.Errorf("append expects a list, got %s", typeName(args[0]))
		}
		l.Items = append(l.Items, args[1:]...)
		return l, nil
	}))
	in.SetGlobal("keys", NewBuiltin("keys", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("keys expects 1 argument")
		}
		m, ok := args[0].(*Map)
		if !ok {
			return nil, fmt.Errorf("keys expects a map, got %s", typeName(args[0]))
		}
		ks := make([]string, 0, len(m.Entries))
		for k := range m.Entries {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out := NewList()
		for _, k := range ks {
			out.Items = append(out.Items, k)
		}
		return out, nil
	}))
	in.SetGlobal("str", NewBuiltin("str", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("str expects 1 argument")
		}
		return ToString(args[0]), nil
	}))
	in.SetGlobal("num", NewBuiltin("num", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("num expects 1 argument")
		}
		return ToFloat(args[0])
	}))
	in.SetGlobal("abs", NewBuiltin("abs", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("abs expects 1 argument")
		}
		f, err := ToFloat(args[0])
		if err != nil {
			return nil, err
		}
		return math.Abs(f), nil
	}))
	in.SetGlobal("sqrt", NewBuiltin("sqrt", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("sqrt expects 1 argument")
		}
		f, err := ToFloat(args[0])
		if err != nil {
			return nil, err
		}
		return math.Sqrt(f), nil
	}))
	in.SetGlobal("sorted", NewBuiltin("sorted", func(args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("sorted expects 1 argument")
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, fmt.Errorf("sorted expects a list, got %s", typeName(args[0]))
		}
		out := append([]Value{}, l.Items...)
		sort.SliceStable(out, func(i, j int) bool {
			li, lok := out[i].(float64)
			lj, jok := out[j].(float64)
			if lok && jok {
				return li < lj
			}
			return ToString(out[i]) < ToString(out[j])
		})
		return &List{Items: out}, nil
	}))
	in.SetGlobal("min", NewBuiltin("min", minMax(true)))
	in.SetGlobal("max", NewBuiltin("max", minMax(false)))
	in.SetGlobal("format", NewBuiltin("format", func(args []Value) (Value, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("format expects a format string")
		}
		f, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("format expects a string, got %s", typeName(args[0]))
		}
		rest := make([]any, len(args)-1)
		for i, a := range args[1:] {
			rest[i] = a
		}
		return fmt.Sprintf(f, rest...), nil
	}))
}

func minMax(min bool) func(args []Value) (Value, error) {
	return func(args []Value) (Value, error) {
		vals := args
		if len(args) == 1 {
			if l, ok := args[0].(*List); ok {
				vals = l.Items
			}
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("min/max of nothing")
		}
		best, err := ToFloat(vals[0])
		if err != nil {
			return nil, err
		}
		for _, v := range vals[1:] {
			f, err := ToFloat(v)
			if err != nil {
				return nil, err
			}
			if (min && f < best) || (!min && f > best) {
				best = f
			}
		}
		return best, nil
	}
}
