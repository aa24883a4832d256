// Package openuh reimplements the compiler side of the paper's integration:
// a multi-level tree intermediate representation in the spirit of WHIRL, a
// small source language and front end, a compile-time instrumentation module
// with selective-instrumentation scoring, static cost models (processor,
// cache, parallel) that guide optimization, optimization passes grouped into
// the standard levels O0..O3, and code generation onto the execution
// simulator. Feedback from PerfExplorer analyses can be folded back into the
// cost models, closing the loop sketched in Fig. 3 of the paper.
package openuh

import (
	"fmt"
	"strings"
)

// Level mirrors WHIRL's five representation levels. Programs are built at
// VeryHigh; each Lower() call moves the whole tree down one level. Most
// passes declare the level they operate on.
type Level int

// The five WHIRL levels.
const (
	VeryHigh Level = iota
	High
	Mid
	Low
	VeryLow
)

// String names the level.
func (l Level) String() string {
	switch l {
	case VeryHigh:
		return "VH"
	case High:
		return "H"
	case Mid:
		return "M"
	case Low:
		return "L"
	case VeryLow:
		return "VL"
	}
	return "?"
}

// Work is the essential operation mix of one execution of a compute
// statement — what the algorithm fundamentally must do, before code
// generation adds redundancy (spills, re-loads, address recomputation).
type Work struct {
	FP, Int, Loads, Stores, Branches uint64

	// Memory behaviour of the statement.
	Region     string  // name of the data region touched ("" = none)
	Off, Len   int64   // byte range within the region
	Stride     int64   // access stride in bytes
	Reuse      float64 // re-references per cache line
	FirstTouch bool    // statement first-touches its range

	// DepChain in [0,1] expresses how serial the dataflow is: 0 = fully
	// independent operations, 1 = a single dependence chain. It drives the
	// processor model's ILP estimate and FP stall estimate.
	DepChain float64
}

// Ops returns the essential instruction count.
func (w Work) Ops() uint64 { return w.FP + w.Int + w.Loads + w.Stores + w.Branches }

// NodeKind discriminates IR nodes.
type NodeKind int

// IR node kinds.
const (
	KindCompute NodeKind = iota
	KindLoop
	KindCall
	KindBranch
	KindParallelLoop
	KindBarrier
	KindInstrument // inserted by the instrumentation module
)

// Node is one IR tree node.
type Node struct {
	Kind NodeKind
	Name string // loop/region name, callee for calls, event for instrument

	// KindCompute.
	Work Work

	// KindLoop / KindParallelLoop.
	Trip     int64
	Schedule string // parallel loops: OpenMP schedule clause
	Body     []*Node

	// KindBranch.
	Prob float64 // probability the Then side is taken
	Then []*Node
	Else []*Node

	// KindInstrument: Body holds the wrapped nodes.
}

// Proc is a program unit.
type Proc struct {
	Name   string
	Body   []*Node
	Params []string
}

// Program is a whole translation unit at some IR level.
type Program struct {
	Name  string
	Level Level
	Procs []*Proc

	index map[string]*Proc
}

// NewProgram creates an empty VeryHigh-level program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Level: VeryHigh, index: make(map[string]*Proc)}
}

// AddProc appends a procedure.
func (p *Program) AddProc(proc *Proc) *Proc {
	if p.index == nil {
		p.index = make(map[string]*Proc)
	}
	if _, dup := p.index[proc.Name]; dup {
		panic(fmt.Sprintf("openuh: duplicate procedure %q", proc.Name))
	}
	p.Procs = append(p.Procs, proc)
	p.index[proc.Name] = proc
	return proc
}

// Proc returns a procedure by name, or nil.
func (p *Program) Proc(name string) *Proc {
	if p.index == nil {
		p.index = make(map[string]*Proc)
		for _, pr := range p.Procs {
			p.index[pr.Name] = pr
		}
	}
	return p.index[name]
}

// Lower moves the program down one representation level. Lowering is
// behaviour-preserving here; what changes is which constructs the
// instrumentation module may still see (e.g. parallel loops are explicit
// runtime calls below High) and which passes may run.
func (p *Program) Lower() {
	if p.Level < VeryLow {
		p.Level++
	}
}

// Validate checks structural invariants: calls resolve, trip counts are
// positive, probabilities are in range, and there are no instrument nodes
// before instrumentation runs at most once per region.
func (p *Program) Validate() error {
	if p.Proc("main") == nil {
		return fmt.Errorf("openuh: program %q has no main procedure", p.Name)
	}
	for _, proc := range p.Procs {
		if err := p.validateNodes(proc.Name, proc.Body); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateNodes(proc string, nodes []*Node) error {
	for _, n := range nodes {
		switch n.Kind {
		case KindCompute:
			if n.Work.Ops() == 0 && n.Work.Region == "" {
				return fmt.Errorf("openuh: %s: empty compute statement", proc)
			}
			if n.Work.DepChain < 0 || n.Work.DepChain > 1 {
				return fmt.Errorf("openuh: %s: DepChain %g out of [0,1]", proc, n.Work.DepChain)
			}
		case KindLoop, KindParallelLoop:
			if n.Trip <= 0 {
				return fmt.Errorf("openuh: %s: loop %q has trip count %d", proc, n.Name, n.Trip)
			}
			if err := p.validateNodes(proc, n.Body); err != nil {
				return err
			}
		case KindCall:
			if p.Proc(n.Name) == nil {
				return fmt.Errorf("openuh: %s: call to undefined procedure %q", proc, n.Name)
			}
		case KindBranch:
			if n.Prob < 0 || n.Prob > 1 {
				return fmt.Errorf("openuh: %s: branch probability %g out of [0,1]", proc, n.Prob)
			}
			if err := p.validateNodes(proc, n.Then); err != nil {
				return err
			}
			if err := p.validateNodes(proc, n.Else); err != nil {
				return err
			}
		case KindInstrument:
			if err := p.validateNodes(proc, n.Body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("openuh: %s: unknown node kind %d", proc, n.Kind)
		}
	}
	return nil
}

// Dump renders the program tree (for the compiler driver's -dump flag and
// for tests).
func (p *Program) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s [level %s]\n", p.Name, p.Level)
	for _, proc := range p.Procs {
		fmt.Fprintf(&sb, "proc %s(%s)\n", proc.Name, strings.Join(proc.Params, ", "))
		dumpNodes(&sb, proc.Body, 1)
	}
	return sb.String()
}

func dumpNodes(sb *strings.Builder, nodes []*Node, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, n := range nodes {
		switch n.Kind {
		case KindCompute:
			fmt.Fprintf(sb, "%scompute fp=%d int=%d ld=%d st=%d br=%d region=%q dep=%.2f\n",
				indent, n.Work.FP, n.Work.Int, n.Work.Loads, n.Work.Stores, n.Work.Branches,
				n.Work.Region, n.Work.DepChain)
		case KindLoop:
			fmt.Fprintf(sb, "%sloop %s trip=%d\n", indent, n.Name, n.Trip)
			dumpNodes(sb, n.Body, depth+1)
		case KindParallelLoop:
			fmt.Fprintf(sb, "%sparallel loop %s trip=%d schedule=%s\n", indent, n.Name, n.Trip, n.Schedule)
			dumpNodes(sb, n.Body, depth+1)
		case KindCall:
			fmt.Fprintf(sb, "%scall %s\n", indent, n.Name)
		case KindBranch:
			fmt.Fprintf(sb, "%sbranch p=%.2f\n", indent, n.Prob)
			dumpNodes(sb, n.Then, depth+1)
			if len(n.Else) > 0 {
				fmt.Fprintf(sb, "%selse\n", indent)
				dumpNodes(sb, n.Else, depth+1)
			}
		case KindBarrier:
			fmt.Fprintf(sb, "%sbarrier\n", indent)
		case KindInstrument:
			fmt.Fprintf(sb, "%sinstrument %q\n", indent, n.Name)
			dumpNodes(sb, n.Body, depth+1)
		}
	}
}

// Builder helpers.

// Compute makes a compute node.
func Compute(w Work) *Node { return &Node{Kind: KindCompute, Work: w} }

// Loop makes a serial loop node.
func Loop(name string, trip int64, body ...*Node) *Node {
	return &Node{Kind: KindLoop, Name: name, Trip: trip, Body: body}
}

// ParallelLoop makes an OpenMP-style worksharing loop node.
func ParallelLoop(name string, trip int64, schedule string, body ...*Node) *Node {
	return &Node{Kind: KindParallelLoop, Name: name, Trip: trip, Schedule: schedule, Body: body}
}

// Call makes a call node.
func Call(callee string) *Node { return &Node{Kind: KindCall, Name: callee} }

// Branch makes a two-way branch node taken with probability p.
func Branch(p float64, then, els []*Node) *Node {
	return &Node{Kind: KindBranch, Prob: p, Then: then, Else: els}
}
