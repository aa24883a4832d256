package perfdmf

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// testdata/col2_*.pdmf are trials in the %PDMFCOL2 encoding, written by the
// last encoder that wrote that form (commit 2565d7f). They are the oracle
// across a payload version: what a later decoder reads from them must be the
// trial they were written from, bit for bit. col2_sim.pdmf is a simulator
// trial and has its own check in internal/apps; the three below are built
// here.

// col2FixtureTrials returns file name → the trial the file was written from.
func col2FixtureTrials() map[string]*Trial {
	// The service benchmark's S shape: random 15-digit measurements,
	// inclusive above exclusive, random call counts — no two rows alike.
	r := rand.New(rand.NewSource(17))
	synthetic := NewTrial("dmfload", "exp-00", "trial-0000", 8)
	synthetic.AddMetric(TimeMetric)
	synthetic.Metadata["shape"] = "S"
	for i := 0; i < 32; i++ {
		e := synthetic.EnsureEvent(fmt.Sprintf("main => phase_%02d => loop_%03d", i%2, i))
		for th := 0; th < 8; th++ {
			e.Calls[th] = float64(1 + r.Intn(9))
			x := 1e14 + float64(r.Int63n(1e14))
			e.SetValue(TimeMetric, th, x+float64(r.Int63n(9e13)), x)
		}
	}

	// Every event with a metric of its own and nothing else; leaf events
	// (exclusive = inclusive) and one value on every thread among them.
	sparse := NewTrial("app", "exp", "sparse", 4)
	for i := 0; i < 12; i++ {
		e := sparse.EnsureEvent(fmt.Sprintf("f%d", i))
		inc, exc := make([]float64, 4), make([]float64, 4)
		for th := range inc {
			e.Calls[th] = 1
			switch i % 4 {
			case 0: // all zero
			case 1: // a leaf: full-precision, exclusive = inclusive
				inc[th] = math.Sqrt(float64(i*4 + th + 2))
				exc[th] = inc[th]
			case 2: // SPMD: one value everywhere, exclusive below inclusive
				inc[th], exc[th] = float64(1000*i), float64(100*i)
			case 3: // a measurement
				exc[th] = math.Sqrt(float64(i*4 + th + 2))
				inc[th] = 2 * exc[th]
			}
		}
		e.Inclusive[fmt.Sprintf("M%d", i)] = inc
		e.Exclusive[fmt.Sprintf("M%d", i)] = exc
	}

	// The bit patterns JSON cannot carry, alone and in rows that repeat:
	// NaN payloads, −0, ±Inf, a subnormal.
	nan := math.Float64frombits(0x7ff8_0000_0000_dead)
	negNaN := math.Float64frombits(0xfff8_dead_0000_0000)
	negZero := math.Copysign(0, -1)
	edge := NewTrial("app µ", "exp/1", "edge", 3)
	edge.AddMetric(TimeMetric)
	edge.AddMetric("PAPI_FP_OPS")
	rows := [][2][3]float64{
		{{nan, negZero, math.Inf(1)}, {math.Inf(-1), negNaN, 5e-324}},        // all different
		{{nan, nan, nan}, {nan, nan, nan}},                                   // one NaN everywhere, both sides
		{{negZero, negZero, negZero}, {0, 0, 0}},                             // −0 is not 0
		{{negZero, 0, negZero}, {negZero, 0, negZero}},                       // exclusive = inclusive, signs kept
		{{math.Inf(1), math.Inf(1), math.Inf(1)}, {math.Inf(-1), 1, negNaN}}, // constant beside literal
		{{negNaN, 1, 2}, {negNaN, 1, 2}},                                     // exclusive = inclusive with a payload
	}
	for i, row := range rows {
		e := edge.EnsureEvent(fmt.Sprintf("e%d", i))
		for th := 0; th < 3; th++ {
			e.Calls[th] = float64(i)
			e.SetValue(TimeMetric, th, row[0][th], row[1][th])
			e.SetValue("PAPI_FP_OPS", th, row[1][th], row[0][th])
		}
	}
	delete(edge.Event("e0").Inclusive, "PAPI_FP_OPS") // exclusive-only
	return map[string]*Trial{
		"col2_synthetic.pdmf": synthetic,
		"col2_sparse.pdmf":    sparse,
		"col2_edge.pdmf":      edge,
	}
}

// The checked-in files are byte for byte what this commit's encoder writes
// for their trials, and decode to them.
func TestCheckedInCol2Files(t *testing.T) {
	for name, tr := range col2FixtureTrials() {
		file, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if enc, err := EncodeTrial(tr); err != nil || !bytes.Equal(enc, file) {
			t.Errorf("%s is not the encoding of its trial (err=%v)", name, err)
		}
		if got, err := DecodeTrial(file); err != nil || canonicalTrialDump(got) != canonicalTrialDump(tr) {
			t.Errorf("%s does not decode to its trial (err=%v)", name, err)
		}
	}
}
