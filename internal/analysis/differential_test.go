package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"perfknow/internal/perfdmf"
)

// The differential harness: every analysis operation runs through both the
// columnar engine (the public functions) and the row-oriented oracle (the
// *Row functions of row_oracle_test.go) over ~100 generated trials — varied thread
// counts, metrics, callpaths, absent metrics, unregistered extras, NaN
// (including payloads), ±Inf and -0 values, zero-event and single-event
// shapes — and the results must be byte-identical, down to float bit
// patterns. Comparison happens on a canonical textual dump that renders
// every float as its IEEE bits, so signed zeros and infinities count;
// NaNs are canonicalized (see dumpFloats for why payloads are exempt).
//
// On mismatch the harness writes a full report (set DIFFERENTIAL_REPORT to
// choose the path; CI uploads it as an artifact) and fails.

var metricPool = []string{perfdmf.TimeMetric, "PAPI_FP_OPS", "PAPI_L2_TCM", "BYTES"}

func genValue(r *rand.Rand) float64 {
	switch r.Intn(14) {
	case 0:
		return math.NaN()
	case 1:
		// A NaN with a distinctive payload: only bit-exact handling keeps it.
		return math.Float64frombits(0x7ff8_0000_0000_1234)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return 0
	case 5:
		return math.Copysign(0, -1)
	default:
		return math.Trunc(r.Float64()*1e9) / 64
	}
}

// genTrial builds a valid trial with adversarial variety: some events
// missing some registered metrics entirely, some with exclusive-only data,
// unregistered extra metrics, callpath events, groups, metadata.
func genTrial(r *rand.Rand, name string, threads int) *perfdmf.Trial {
	t := perfdmf.NewTrial("app", "exp", name, threads)
	nm := 1 + r.Intn(len(metricPool))
	for i := 0; i < nm; i++ {
		t.AddMetric(metricPool[i])
	}
	t.Metadata["threads"] = strconv.Itoa(threads)
	if r.Intn(2) == 0 {
		t.Metadata["host"] = "node" + strconv.Itoa(r.Intn(4))
	}
	nev := r.Intn(10)
	for i := 0; i < nev; i++ {
		e := t.EnsureEvent("f" + strconv.Itoa(i))
		for th := 0; th < threads; th++ {
			e.Calls[th] = float64(r.Intn(100))
		}
		if r.Intn(4) == 0 {
			e.Groups = []string{"MPI", "G" + strconv.Itoa(r.Intn(2))}
		}
		for _, m := range t.Metrics {
			switch r.Intn(5) {
			case 0: // metric absent on this event
				delete(e.Inclusive, m)
				delete(e.Exclusive, m)
			case 1: // exclusive-only (valid: Validate only requires inc ⇒ exc)
				delete(e.Inclusive, m)
				for th := 0; th < threads; th++ {
					e.Exclusive[m][th] = genValue(r)
				}
			default:
				for th := 0; th < threads; th++ {
					e.SetValue(m, th, genValue(r), genValue(r))
				}
			}
		}
		if r.Intn(4) == 0 { // unregistered extra metric
			vals := make([]float64, threads)
			for th := range vals {
				vals[th] = genValue(r)
			}
			e.Exclusive["EXTRA"] = vals
		}
	}
	if nev >= 2 { // callpath events
		cp := t.EnsureEvent("f0" + perfdmf.CallpathSeparator + "f1")
		for th := 0; th < threads; th++ {
			cp.SetValue(t.Metrics[0], th, genValue(r), genValue(r))
		}
	}
	return t
}

// --- canonical bit-exact dumps -----------------------------------------

func dumpFloats(sb *strings.Builder, xs []float64) {
	for _, x := range xs {
		b := math.Float64bits(x)
		if x != x {
			// Go does not specify which NaN payload survives arithmetic —
			// the surviving bits follow the hardware operand order, which
			// the compiler picks per code site (`a+b` and `s[i]+=v` differ
			// in practice). All NaNs therefore compare equal here; ±Inf,
			// -0 and every finite value stay exact-bit. Storage-level NaN
			// payload preservation (no arithmetic) is pinned exactly by
			// the perfdmf round-trip tests.
			b = 0x7ff8_0000_0000_0001
		}
		fmt.Fprintf(sb, " %016x", b)
	}
	sb.WriteByte('\n')
}

func dumpTrial(tr *perfdmf.Trial) string {
	if tr == nil {
		return "<nil trial>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trial %q/%q/%q threads=%d\nmetrics=%q\n", tr.App, tr.Experiment, tr.Name, tr.Threads, tr.Metrics)
	keys := make([]string, 0, len(tr.Metadata))
	for k := range tr.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "meta %q=%q\n", k, tr.Metadata[k])
	}
	for _, e := range tr.Events {
		fmt.Fprintf(&sb, "event %q groups=%q nilgroups=%v calls=", e.Name, e.Groups, e.Groups == nil)
		dumpFloats(&sb, e.Calls)
		for _, side := range []struct {
			tag string
			m   map[string][]float64
		}{{"inc", e.Inclusive}, {"exc", e.Exclusive}} {
			ms := make([]string, 0, len(side.m))
			for m := range side.m {
				ms = append(ms, m)
			}
			sort.Strings(ms)
			for _, m := range ms {
				fmt.Fprintf(&sb, " %s %q =", side.tag, m)
				dumpFloats(&sb, side.m[m])
			}
		}
	}
	return sb.String()
}

func dumpTrialResult(tr *perfdmf.Trial, name string, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "name=" + name + "\n" + dumpTrial(tr)
}

func dumpStats(stats []EventStat) string {
	var sb strings.Builder
	for _, s := range stats {
		fmt.Fprintf(&sb, "%q threads=%d", s.Event, s.Threads)
		dumpFloats(&sb, []float64{s.Mean, s.StdDev, s.Min, s.Max, s.Total})
	}
	return sb.String()
}

func dumpClustering(c *Clustering, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "k=%d events=%q assign=%v sizes=%v inertia=", c.K, c.Events, c.Assignment, c.Sizes)
	dumpFloats(&sb, []float64{c.Inertia})
	for _, cent := range c.Centroids {
		sb.WriteString("centroid")
		dumpFloats(&sb, cent)
	}
	return sb.String()
}

func dumpChanges(cs []Change) string {
	var sb strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&sb, "%q", c.Event)
		dumpFloats(&sb, []float64{c.Base, c.Other, c.Fraction})
	}
	return sb.String()
}

// --- the harness --------------------------------------------------------

type mismatchLog struct {
	entries []string
}

func (ml *mismatchLog) check(desc, row, col string) {
	if row != col {
		ml.entries = append(ml.entries,
			fmt.Sprintf("== %s ==\n-- row oracle --\n%s\n-- columnar --\n%s\n", desc, row, col))
	}
}

func (ml *mismatchLog) finish(t *testing.T) {
	t.Helper()
	if len(ml.entries) == 0 {
		return
	}
	report := os.Getenv("DIFFERENTIAL_REPORT")
	if report == "" {
		report = filepath.Join(t.TempDir(), "differential_mismatch_report.txt")
	}
	body := strings.Join(ml.entries, "\n")
	if err := os.WriteFile(report, []byte(body), 0o644); err != nil {
		t.Logf("writing mismatch report: %v", err)
	}
	n := len(ml.entries)
	if n > 3 {
		ml.entries = ml.entries[:3]
	}
	t.Errorf("%d row/columnar mismatches (full report: %s)\n%s", n, report, strings.Join(ml.entries, "\n"))
}

func TestDifferentialEngines(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ml := &mismatchLog{}
	threadChoices := []int{1, 1, 2, 3, 4, 8, 16}
	ops := []Op{OpAdd, OpSubtract, OpMultiply, OpDivide}
	for i := 0; i < 100; i++ {
		th := threadChoices[r.Intn(len(threadChoices))]
		tr := genTrial(r, fmt.Sprintf("trial-%03d", i), th)
		sib := genTrial(r, fmt.Sprintf("sib-%03d", i), th)
		third := genTrial(r, fmt.Sprintf("third-%03d", i), th)
		if err := tr.Validate(); err != nil {
			t.Fatalf("generator produced invalid trial: %v", err)
		}
		id := func(op string) string { return fmt.Sprintf("trial %d (%d threads): %s", i, th, op) }
		m1 := tr.Metrics[r.Intn(len(tr.Metrics))]
		m2 := tr.Metrics[r.Intn(len(tr.Metrics))]

		for _, op := range ops {
			ro, rn, re := DeriveMetricRow(tr, m1, m2, op)
			co, cn, ce := DeriveMetric(tr, m1, m2, op)
			ml.check(id("DeriveMetric "+op.String()), dumpTrialResult(ro, rn, re), dumpTrialResult(co, cn, ce))
		}
		{
			ro, rn, re := DeriveMetricRow(tr, m1, "NOPE", OpDivide)
			co, cn, ce := DeriveMetric(tr, m1, "NOPE", OpDivide)
			ml.check(id("DeriveMetric missing rhs"), dumpTrialResult(ro, rn, re), dumpTrialResult(co, cn, ce))
		}
		{
			scale := genValue(r)
			ro, rn, re := DeriveScaledRow(tr, m1, scale)
			co, cn, ce := DeriveScaled(tr, m1, scale)
			ml.check(id("DeriveScaled"), dumpTrialResult(ro, rn, re), dumpTrialResult(co, cn, ce))
		}
		{
			ro, rn, re := DeriveSumRow(tr, tr.Metrics)
			co, cn, ce := DeriveSum(tr, tr.Metrics)
			ml.check(id("DeriveSum"), dumpTrialResult(ro, rn, re), dumpTrialResult(co, cn, ce))
		}
		for _, red := range []Reduction{ReduceMean, ReduceTotal, ReduceMax, ReduceMin, ReduceStdDev} {
			ml.check(id("Reduce "+red.String()), dumpTrial(ReduceRow(tr, red)), dumpTrial(Reduce(tr, red)))
		}
		{
			var names []string
			for _, e := range tr.Events {
				if r.Intn(2) == 0 {
					names = append(names, e.Name)
				}
			}
			names = append(names, "no-such-event")
			ml.check(id("ExtractEvents"), dumpTrial(ExtractEventsRow(tr, names)), dumpTrial(ExtractEvents(tr, names)))
		}
		for _, n := range []int{3, 100} {
			ml.check(id(fmt.Sprintf("TopN %d", n)),
				strings.Join(TopNRow(tr, m1, n), "|"), strings.Join(TopN(tr, m1, n), "|"))
		}
		ml.check(id("ExclusiveStats"), dumpStats(ExclusiveStatsRow(tr, m1)), dumpStats(ExclusiveStats(tr, m1)))
		ml.check(id("InclusiveStats"), dumpStats(InclusiveStatsRow(tr, m1)), dumpStats(InclusiveStats(tr, m1)))
		{
			k := 1 + r.Intn(th)
			rc, re := KMeansRow(tr, m1, k, 10)
			cc, ce := KMeans(tr, m1, k, 10)
			ml.check(id(fmt.Sprintf("KMeans k=%d", k)), dumpClustering(rc, re), dumpClustering(cc, ce))
		}
		{
			ro, re := DiffTrialsRow(tr, sib)
			co, ce := DiffTrials(tr, sib)
			ml.check(id("DiffTrials"), dumpTrialResult(ro, "", re), dumpTrialResult(co, "", ce))
		}
		{
			ro, re := MergeTrialsRow([]*perfdmf.Trial{tr, sib, third})
			co, ce := MergeTrials([]*perfdmf.Trial{tr, sib, third})
			ml.check(id("MergeTrials"), dumpTrialResult(ro, "", re), dumpTrialResult(co, "", ce))
		}
		ml.check(id("RelativeChange"),
			dumpChanges(RelativeChangeRow(tr, sib, m1, 0.5)), dumpChanges(RelativeChange(tr, sib, m1, 0.5)))

		// LinearRegression is engine-shared flat-slice code; feeding it the
		// per-event means from each engine's stats pass pins the composed
		// result too.
		rs, cs := ExclusiveStatsRow(tr, m1), ExclusiveStats(tr, m1)
		if len(rs) >= 2 && len(cs) == len(rs) {
			xs := make([]float64, len(rs))
			rys, cys := make([]float64, len(rs)), make([]float64, len(rs))
			for j := range rs {
				xs[j] = float64(j)
				rys[j], cys[j] = rs[j].Mean, cs[j].Mean
			}
			s1, i1, r1, e1 := LinearRegression(xs, rys)
			s2, i2, r2, e2 := LinearRegression(xs, cys)
			var b1, b2 strings.Builder
			fmt.Fprintf(&b1, "err=%v", e1)
			dumpFloats(&b1, []float64{s1, i1, r1})
			fmt.Fprintf(&b2, "err=%v", e2)
			dumpFloats(&b2, []float64{s2, i2, r2})
			ml.check(id("LinearRegression"), b1.String(), b2.String())
		}
	}
	ml.finish(t)
}

// TestDifferentialEdgeShapes covers the degenerate shapes: zero events,
// single event, single thread, and mismatched-thread error paths.
func TestDifferentialEdgeShapes(t *testing.T) {
	ml := &mismatchLog{}
	empty := perfdmf.NewTrial("app", "exp", "empty", 2)
	empty.AddMetric(perfdmf.TimeMetric)
	single := perfdmf.NewTrial("app", "exp", "single", 1)
	single.AddMetric(perfdmf.TimeMetric)
	single.EnsureEvent("only").SetValue(perfdmf.TimeMetric, 0, 5, 5)

	for _, tr := range []*perfdmf.Trial{empty, single} {
		ro, rn, re := DeriveMetricRow(tr, perfdmf.TimeMetric, perfdmf.TimeMetric, OpAdd)
		co, cn, ce := DeriveMetric(tr, perfdmf.TimeMetric, perfdmf.TimeMetric, OpAdd)
		ml.check(tr.Name+" DeriveMetric", dumpTrialResult(ro, rn, re), dumpTrialResult(co, cn, ce))
		ml.check(tr.Name+" Reduce", dumpTrial(ReduceRow(tr, ReduceMean)), dumpTrial(Reduce(tr, ReduceMean)))
		ml.check(tr.Name+" TopN", strings.Join(TopNRow(tr, perfdmf.TimeMetric, 5), "|"),
			strings.Join(TopN(tr, perfdmf.TimeMetric, 5), "|"))
		ml.check(tr.Name+" ExclusiveStats",
			dumpStats(ExclusiveStatsRow(tr, perfdmf.TimeMetric)), dumpStats(ExclusiveStats(tr, perfdmf.TimeMetric)))
		rc, re2 := KMeansRow(tr, perfdmf.TimeMetric, 1, 5)
		cc, ce2 := KMeans(tr, perfdmf.TimeMetric, 1, 5)
		ml.check(tr.Name+" KMeans", dumpClustering(rc, re2), dumpClustering(cc, ce2))
	}
	{
		other := perfdmf.NewTrial("app", "exp", "wide", 4)
		other.AddMetric(perfdmf.TimeMetric)
		_, re := DiffTrialsRow(single, other)
		_, ce := DiffTrials(single, other)
		ml.check("mismatched threads diff", fmt.Sprint(re), fmt.Sprint(ce))
		_, me := MergeTrialsRow([]*perfdmf.Trial{single, other})
		_, mce := MergeTrials([]*perfdmf.Trial{single, other})
		ml.check("mismatched threads merge", fmt.Sprint(me), fmt.Sprint(mce))
	}
	ml.finish(t)
}
