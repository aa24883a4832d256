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
)

// Value is any script value: float64, string, bool, nil, *List, *Map,
// *Builtin, *Module, *Function, or a host Object.
type Value = any

// List is a mutable ordered collection.
type List struct{ Items []Value }

// Map is a string-keyed dictionary.
type Map struct{ Entries map[string]Value }

// NewList builds a list value.
func NewList(items ...Value) *List { return &List{Items: items} }

// NewMap builds an empty map value.
func NewMap() *Map { return &Map{Entries: make(map[string]Value)} }

// Function is a user-defined script function: its compiled body plus the
// frame chain captured at the definition site.
type Function struct {
	Name   string
	Params []string

	compiled *compiledFn
	defFrame *frame
}

// Interp runs scripts. Globals persist across Run calls, so an embedding
// application can bind its API once and execute many scripts.
//
// Run lowers the parsed AST to Go closures (see compile.go) with names
// resolved to frame slots at compile time.
type Interp struct {
	globals map[string]Value
	Stdout  io.Writer
	// MaxSteps bounds statement executions to catch runaway scripts;
	// 0 means no limit.
	MaxSteps int
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
	// Host is the embedding application's state, which its row
	// implementations reach through the interpreter they are handed.
	Host any
}

// Steps reports how many statements the last (or current) Run has executed;
// the differential harness holds the count to the tree-walking oracle's.
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

// New builds an interpreter with the language builtins bound.
func New() *Interp {
	in := &Interp{globals: make(map[string]Value), Stdout: os.Stdout}
	in.Bind(Builtins)
	return in
}

// SetGlobal binds a name in the global scope (host API injection).
func (in *Interp) SetGlobal(name string, v Value) { in.globals[name] = v }

// setGlobalIfExists assigns to an existing global and reports whether there
// was one; unlike SetGlobal it never defines the name.
func (in *Interp) setGlobalIfExists(name string, v Value) bool {
	_, ok := in.globals[name]
	if ok {
		in.globals[name] = v
	}
	return ok
}

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

// setIndex stores v at container[idx]; the tree-walking oracle
// (treewalk_test.go) shares it so the error texts cannot drift apart.
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

// applyBin applies a non-short-circuit binary operator to two evaluated
// operands. The compiled engine and the tree-walking oracle both route
// through it, so operator semantics and error texts are identical by
// construction.
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
		return in.callHost(f, nil, args, line)
	case *method:
		return in.callHost(f.Builtin, f.recv, args, line)
	case *Function:
		if len(args) != len(f.Params) {
			return nil, errAt(line, "%s expects %d arguments, got %d", f.Name, len(f.Params), len(args))
		}
		return in.callCompiled(f, args)
	}
	return nil, errAt(line, "%s is not callable", typeName(fn))
}

func (in *Interp) attribute(recv Value, name string, line int) (Value, error) {
	switch r := recv.(type) {
	case *Module:
		if b := r.Lookup(name); b != nil {
			return b, nil
		}
		return nil, errAt(line, "%s has no member %q", typeName(r), name)
	case Object:
		b := r.Members().Lookup(name)
		switch {
		case b == nil:
			return nil, errAt(line, "%s has no member %q", r.TypeName(), name)
		case b.Prop:
			v, err := b.Impl(in, r, nil)
			if err != nil {
				return nil, hostErrAt(line, name, err)
			}
			return v, nil
		}
		return &method{b, r}, nil
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

// hostErrAt is the error of a host callable that failed: errAt's text, and
// err still reachable through errors.Is, so a host can tell its own
// sentinels (a missing trial, a refused write) from a script's mistakes.
func hostErrAt(line int, name string, err error) error {
	return fmt.Errorf("script: line %d: %s: %w", line, name, err)
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
	case *method:
		return "builtin " + x.Name
	case *Function:
		return "function " + x.Name
	case *Module:
		return "module " + x.Name
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
	case *Module, Object, *Builtin, *method, *Function:
		return "<" + typeName(x) + ">"
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

// Builtins are the language's own functions, bound as globals in every
// interpreter.
var Builtins = NewModule("",
	Def("print(values any...)", "write the values, separated by spaces, and a newline", func(in *Interp, _ Value, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = ToString(a)
		}
		_, err := fmt.Fprintln(in.Stdout, strings.Join(parts, " "))
		return nil, err
	}),
	Def("len(x any)", "the length of a list, map or string", func(_ *Interp, _ Value, args []Value) (Value, error) {
		switch x := args[0].(type) {
		case *List:
			return float64(len(x.Items)), nil
		case *Map:
			return float64(len(x.Entries)), nil
		case string:
			return float64(len(x)), nil
		}
		return nil, fmt.Errorf("len of %s", typeName(args[0]))
	}),
	Def("range(a num, b num?)", "the numbers from 0 up to a, or from a up to b, in steps of 1", func(_ *Interp, _ Value, args []Value) (Value, error) {
		lo, hi := 0.0, args[0].(float64)
		if len(args) == 2 {
			lo, hi = hi, args[1].(float64)
		}
		out := NewList()
		if n := hi - lo; n > 0 && n < 1<<24 {
			out.Items = make([]Value, 0, int(math.Ceil(n)))
		}
		for i := lo; i < hi; i++ {
			out.Items = append(out.Items, boxFloat(i))
		}
		return out, nil
	}),
	Def("append(list list, values any...)", "add the values to the end of list, and return it", func(_ *Interp, _ Value, args []Value) (Value, error) {
		l := args[0].(*List)
		l.Items = append(l.Items, args[1:]...)
		return l, nil
	}),
	Def("keys(m map)", "the map's keys, sorted", func(_ *Interp, _ Value, args []Value) (Value, error) {
		m := args[0].(*Map)
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
	}),
	Def("str(x any)", "x as display text", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return ToString(args[0]), nil
	}),
	Def("num(x any)", "x as a number: a number, a boolean (1 or 0) or a numeric string", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return ToFloat(args[0])
	}),
	Def("abs(x num)", "the absolute value of x", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return math.Abs(args[0].(float64)), nil
	}),
	Def("sqrt(x num)", "the square root of x", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return math.Sqrt(args[0].(float64)), nil
	}),
	Def("sorted(l list)", "a sorted copy of l: numbers ascending, then anything else by its text", func(_ *Interp, _ Value, args []Value) (Value, error) {
		out := append([]Value{}, args[0].(*List).Items...)
		sort.SliceStable(out, func(i, j int) bool {
			li, lok := out[i].(float64)
			lj, jok := out[j].(float64)
			if lok && jok {
				return li < lj
			}
			return ToString(out[i]) < ToString(out[j])
		})
		return &List{Items: out}, nil
	}),
	Def("min(values any...)", "the smallest of the values, or of the items of one list", minMax(true)),
	Def("max(values any...)", "the largest of the values, or of the items of one list", minMax(false)),
	Def("format(f str, values any...)", "the values formatted by the Go fmt verbs in f", func(_ *Interp, _ Value, args []Value) (Value, error) {
		return fmt.Sprintf(args[0].(string), args[1:]...), nil
	}),
)

func minMax(min bool) Impl {
	return func(_ *Interp, _ Value, args []Value) (Value, error) {
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
