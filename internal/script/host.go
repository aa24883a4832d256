package script

// host.go is how an embedding application declares what scripts may call.
// Every host callable — a function, a module member, a method or a
// property — is one row: a signature, a one-line doc and an implementation.
// A call's arity and argument kinds are checked against the row before the
// implementation runs, so an implementation neither counts nor type-switches
// its arguments. docs/LANGUAGES.md lists every row of the shipped API, held
// to the tables by TestScriptAPIDocumented (internal/diagnosis).

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Impl implements a row. recv is the object a method or property was read
// from, nil for a function; args have passed their kinds' checks and hold
// what the checks resolved them to.
type Impl func(in *Interp, recv Value, args []Value) (Value, error)

// Builtin is one row of a table.
type Builtin struct {
	// Sig is the signature as declared: a name, then — unless the row is a
	// property, read on access — a parenthesised list of "name kind"
	// parameters. "kind?" marks an optional trailing parameter and
	// "kind..." a variadic last one.
	Sig    string
	Name   string
	Doc    string
	Params []Param
	Impl   Impl
	// A call passes at least Min arguments and, unless Max < 0, at most Max.
	Min, Max int
	// Prop marks a property: a row without a parameter list.
	Prop bool

	short string // the signature without kinds, as errors quote it
}

// Param is one declared parameter.
type Param struct {
	Name string
	Kind *Kind
}

// Kind is what a parameter accepts.
type Kind struct {
	Name  string
	want  string
	check func(v, recv Value) (Value, error)
}

// ErrKind is what a kind's check returns for an argument of the wrong kind;
// the call reports it as "<parameter>: want <what the kind accepts>, got
// <the argument>".
var ErrKind = errors.New("script: argument of the wrong kind")

// NewKind declares a host kind. name is how signatures spell it and want
// says what it accepts ("a trial"). check returns the value the
// implementation receives — the argument itself, or what the host resolves
// it to — ErrKind, or an error saying why the argument does not resolve. It
// may resolve against recv: the object a method was read from, else the
// call's first argument, already checked.
func NewKind(name, want string, check func(v, recv Value) (Value, error)) *Kind {
	return &Kind{Name: name, want: want, check: check}
}

func typed(name, want string, ok func(Value) bool) *Kind {
	return NewKind(name, want, func(v, _ Value) (Value, error) {
		if !ok(v) {
			return nil, ErrKind
		}
		return v, nil
	})
}

// anyKind accepts every value; a call does not check it.
var anyKind = &Kind{Name: "any"}

var builtinKinds = []*Kind{
	anyKind,
	typed("str", "a string", func(v Value) bool { _, ok := v.(string); return ok }),
	typed("num", "a number", func(v Value) bool { _, ok := v.(float64); return ok }),
	typed("count", "a non-negative integer", func(v Value) bool {
		f, ok := v.(float64)
		return ok && f >= 0 && f <= 1<<53 && f == math.Trunc(f)
	}),
	typed("list", "a list", func(v Value) bool { _, ok := v.(*List); return ok }),
	typed("map", "a map", func(v Value) bool { _, ok := v.(*Map); return ok }),
}

// Def declares a row. Its signature may name the built-in kinds (any, str,
// num, count, list, map) and the host kinds passed in. A malformed signature
// is a bug of the declaring package, so Def panics when that package
// initialises.
func Def(sig, doc string, impl Impl, host ...*Kind) *Builtin {
	b := &Builtin{Sig: sig, Doc: doc, Impl: impl}
	name, list, callable := strings.Cut(sig, "(")
	b.Name, b.short, b.Prop = name, name, !callable
	if !callable {
		return b
	}
	list, ok := strings.CutSuffix(list, ")")
	if !ok {
		panic("script: signature " + sig + " does not end in )")
	}
	var shorts []string
	optional := false
	for _, p := range strings.Split(list, ", ") {
		if p == "" {
			break
		}
		pname, kname, _ := strings.Cut(p, " ")
		short := pname
		switch {
		case b.Max < 0 || (optional && !strings.HasSuffix(kname, "?") && !strings.HasSuffix(kname, "...")):
			panic("script: signature " + sig + " has a parameter after an optional or variadic one")
		case strings.HasSuffix(kname, "..."):
			kname, short, b.Max = strings.TrimSuffix(kname, "..."), pname+"...", -1
		case strings.HasSuffix(kname, "?"):
			kname, short, optional = strings.TrimSuffix(kname, "?"), pname+"?", true
			b.Max++
		default:
			b.Min++
			b.Max++
		}
		b.Params = append(b.Params, Param{Name: pname, Kind: lookupKind(sig, kname, host)})
		shorts = append(shorts, short)
	}
	b.short = name + "(" + strings.Join(shorts, ", ") + ")"
	return b
}

func lookupKind(sig, name string, host []*Kind) *Kind {
	for _, k := range append(builtinKinds[:len(builtinKinds):len(builtinKinds)], host...) {
		if k.Name == name {
			return k
		}
	}
	panic("script: signature " + sig + " names an unknown kind " + name)
}

// callHost checks args against the row, resolving each in place, and runs
// the implementation.
func (in *Interp) callHost(b *Builtin, recv Value, args []Value, line int) (Value, error) {
	if len(args) < b.Min || (b.Max >= 0 && len(args) > b.Max) {
		return nil, errAt(line, "%s expects %s, got %d", b.short, b.arity(), len(args))
	}
	for i, a := range args {
		p := b.Params[min(i, len(b.Params)-1)]
		if p.Kind == anyKind {
			continue
		}
		r := recv
		if r == nil {
			r = args[0]
		}
		v, err := p.Kind.check(a, r)
		if errors.Is(err, ErrKind) {
			// A number is named by its value (a count's -1 or 2.5).
			got := typeName(a)
			if _, ok := a.(float64); ok {
				got = ToString(a)
			}
			return nil, errAt(line, "%s: %s: want %s, got %s", b.short, p.Name, p.Kind.want, got)
		}
		if err != nil {
			return nil, errAt(line, "%s: %s: %s", b.short, p.Name, err)
		}
		args[i] = v
	}
	v, err := b.Impl(in, recv, args)
	if err != nil {
		return nil, errAt(line, "%s: %s", b.Name, err)
	}
	return v, nil
}

func (b *Builtin) arity() string {
	switch {
	case b.Max < 0:
		return "at least " + arguments(b.Min)
	case b.Min < b.Max:
		return fmt.Sprintf("%d to %d arguments", b.Min, b.Max)
	}
	return arguments(b.Min)
}

func arguments(n int) string {
	if n == 1 {
		return "1 argument"
	}
	return fmt.Sprintf("%d arguments", n)
}

// Module is a table of rows: a namespace scripts reach by name
// (Utilities.getTrial), the member table of a host object type, or —
// unnamed — rows that Bind makes globals.
type Module struct {
	Name  string
	Rows  []*Builtin
	index map[string]*Builtin
}

// NewModule builds a table.
func NewModule(name string, rows ...*Builtin) *Module {
	m := &Module{Name: name, Rows: rows, index: make(map[string]*Builtin, len(rows))}
	for _, b := range rows {
		m.index[b.Name] = b
	}
	return m
}

// Lookup returns the row named name, or nil.
func (m *Module) Lookup(name string) *Builtin { return m.index[name] }

// Bind makes a table visible to scripts: a named module under its name, the
// rows of an unnamed one as globals.
func (in *Interp) Bind(m *Module) {
	if m.Name != "" {
		in.globals[m.Name] = m
		return
	}
	for _, b := range m.Rows {
		in.globals[b.Name] = b
	}
}

// Object is a host value with members. Members is the table every value of
// the type shares: reading a property row calls it, reading a method row
// binds it to the value.
type Object interface {
	TypeName() string
	Members() *Module
}

// method is a method row bound to the object it was read from.
type method struct {
	*Builtin
	recv Value
}
