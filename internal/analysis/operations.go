// Package analysis is the data-mining operation library of PerfExplorer:
// derived metrics, descriptive statistics across threads, load-balance and
// correlation analyses, top-N selection, scalability/efficiency series over
// multi-trial parametric studies, k-means clustering of thread behaviour,
// and simple regression. Operations take perfdmf Trials and return either
// new Trials (so operations compose) or small result structs that scripts
// and inference rules consume.
package analysis

import (
	"fmt"
	"math"

	"perfknow/internal/perfdmf"
)

// Op is a binary derived-metric operator.
type Op int

const (
	OpAdd Op = iota
	OpSubtract
	OpMultiply
	OpDivide
)

// String renders the operator symbol used inside derived metric names.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSubtract:
		return "-"
	case OpMultiply:
		return "*"
	case OpDivide:
		return "/"
	}
	return "?"
}

// ParseOp parses "+", "-", "*", "/".
func ParseOp(s string) (Op, error) {
	switch s {
	case "+":
		return OpAdd, nil
	case "-":
		return OpSubtract, nil
	case "*":
		return OpMultiply, nil
	case "/":
		return OpDivide, nil
	}
	return 0, fmt.Errorf("analysis: unknown operator %q", s)
}

func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpAdd:
		return a + b
	case OpSubtract:
		return a - b
	case OpMultiply:
		return a * b
	case OpDivide:
		if b == 0 {
			return 0
		}
		return a / b
	}
	return 0
}

// DeriveMetricName is the canonical name of a derived metric, matching the
// "(LHS / RHS)" convention PerfExplorer scripts and rules use.
func DeriveMetricName(lhs, rhs string, op Op) string {
	return "(" + lhs + " " + op.String() + " " + rhs + ")"
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

// Reduction collapses the thread dimension of a trial.
type Reduction int

const (
	ReduceMean Reduction = iota
	ReduceTotal
	ReduceMax
	ReduceMin
	ReduceStdDev
)

// String names the reduction.
func (r Reduction) String() string {
	switch r {
	case ReduceMean:
		return "mean"
	case ReduceTotal:
		return "total"
	case ReduceMax:
		return "max"
	case ReduceMin:
		return "min"
	case ReduceStdDev:
		return "stddev"
	}
	return "unknown"
}

func reduce(xs []float64, r Reduction) float64 {
	if len(xs) == 0 {
		return 0
	}
	switch r {
	case ReduceMean:
		return perfdmf.Mean(xs)
	case ReduceTotal:
		return perfdmf.Sum(xs)
	case ReduceMax:
		m := xs[0]
		for _, x := range xs[1:] {
			if x > m {
				m = x
			}
		}
		return m
	case ReduceMin:
		m := xs[0]
		for _, x := range xs[1:] {
			if x < m {
				m = x
			}
		}
		return m
	case ReduceStdDev:
		return perfdmf.StdDev(xs)
	}
	return 0
}

// LinearRegression fits y = slope*x + intercept by least squares and
// returns the fit along with r² (coefficient of determination).
func LinearRegression(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("analysis: regression needs two equal-length series of >= 2 points")
	}
	mx, my := perfdmf.Mean(xs), perfdmf.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, fmt.Errorf("analysis: regression with constant x")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1, nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	return slope, intercept, r * r, nil
}
