package perfdmf

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testdata/col4_*.pdmf are trials in the %PDMFCOL4 encoding, written by the
// last encoder that wrote that form (commit c556ee4); testdata/col3_*.pdmf
// are the same trials in %PDMFCOL3, written by the encoder before it (commit
// 57258a4), and testdata/col2_*.pdmf in %PDMFCOL2 (commit 2565d7f). The col4_
// files are the oracle across a payload version: what a later decoder reads
// from them must be the trial they were written from, bit for bit. The col3_
// and col2_ files are two and three versions back and refused by name.
// col{2,3,4}_sim.pdmf is a simulator trial and has its own check in
// internal/apps; the three below are built here.

// fixtureTrials returns fixture name → the trial its files were written from.
func fixtureTrials() map[string]*Trial {
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
		"synthetic": synthetic,
		"sparse":    sparse,
		"edge":      edge,
	}
}

// Each checked-in col4_ file is still in the previous form, decodes to the
// trial it was written from, re-encodes in the current form — the same header
// and, row for row, the same values, only the magic and the spelling of
// integer rows differ — and decodes from that to the same columns, every
// value with the bits it had. Stored, it is counted legacy and rewritten by
// fsck; uploaded or replayed from a hint queued before the upgrade, it is
// stored re-encoded.
func TestCheckedInCol4Files(t *testing.T) {
	ctx := context.Background()
	trials := fixtureTrials()
	trials["sim"] = nil // held to the simulator's output by internal/apps
	for short, tr := range trials {
		name := "col4_" + short + ".pdmf"
		file, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := decodeEnvelope(file)
		if err != nil || !isColumnarPrev(payload) {
			t.Fatalf("%s is not a %%PDMFCOL4 envelope (err=%v)", name, err)
		}
		old, err := DecodeColumnar(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr != nil && canonicalTrialDump(old.Trial()) != canonicalTrialDump(tr) {
			t.Errorf("%s does not decode to its trial", name)
		}
		if !bytes.Equal(prevColumnsPayload(t, old), payload) {
			t.Errorf("%s is not what the previous version's writer writes for its columns", name)
		}
		cur, err := old.encodeEnveloped()
		if err != nil {
			t.Fatal(err)
		}
		curPayload, err := decodeEnvelope(cur)
		if err != nil || !IsColumnar(curPayload) || len(cur) > len(file) {
			t.Fatalf("%s re-encodes to %d B from %d B, current form: %v (err=%v)", name, len(cur), len(file), IsColumnar(curPayload), err)
		}
		oldHeader, _, _ := splitHeader(payload)
		curHeader, _, _ := splitHeader(curPayload)
		if !bytes.Equal(oldHeader, curHeader) {
			t.Errorf("%s: the header changed", name)
		}
		back, err := DecodeColumnar(curPayload)
		if err != nil {
			t.Fatalf("%s re-encoded: %v", name, err)
		}
		// DeepEqual compares floats as floats: NaN never equals itself and −0
		// equals 0, so the blocks are compared by their bits.
		if canonicalTrialDump(back.Trial()) != canonicalTrialDump(old.Trial()) || !equalColumnBits(old, back) {
			t.Errorf("%s: the re-encoding holds different columns", name)
		}

		dir := t.TempDir()
		p := filepath.Join(dir, safe(old.App), safe(old.Experiment), safe(old.Name)+".json")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, file, 0o644); err != nil {
			t.Fatal(err)
		}
		repo := mustOpen(t, dir)
		if got, err := repo.GetEncoded(ctx, old.App, old.Experiment, old.Name); err != nil || !bytes.Equal(got, cur) {
			t.Errorf("%s: GetEncoded over the stored file does not serve the current form (err=%v)", name, err)
		}
		if rep, err := repo.Verify(); err != nil || rep.Legacy != 1 || rep.Upgraded != 1 || !rep.Clean() {
			t.Errorf("%s: fsck = %+v, %v; want 1 legacy, 1 upgraded, clean", name, rep, err)
		}
		if stored, _ := os.ReadFile(p); !bytes.Equal(stored, cur) {
			t.Errorf("%s: fsck did not rewrite the file in the current form", name)
		}
		if rep, err := repo.Verify(); err != nil || rep.Legacy != 0 || rep.Upgraded != 0 || !rep.Clean() {
			t.Errorf("%s: second fsck = %+v, %v; want nothing legacy", name, rep, err)
		}
		replayed := mustOpen(t, t.TempDir())
		st, err := replayed.SaveEncoded(ctx, file)
		if err != nil || !bytes.Equal(st.Encoded, cur) {
			t.Fatalf("%s: SaveEncoded of the previous form: %v", name, err)
		}
		if stored := rawTrialFile(t, replayed, old.App, old.Experiment, old.Name); !bytes.Equal(stored, cur) {
			t.Errorf("%s: the previous form was not stored re-encoded", name)
		}
	}
}

// The checked-in col3_ and col2_ files are two and three versions back: each
// is still the envelope it was written as, and is refused by name everywhere,
// as the %PDMFCOL1 file is (TestCheckedInColumnarV1File).
func TestCheckedInCol3Files(t *testing.T) {
	checkRetiredFixtures(t, "col3_", col3Magic)
}

func TestCheckedInCol2Files(t *testing.T) {
	checkRetiredFixtures(t, "col2_", col2Magic)
}

func checkRetiredFixtures(t *testing.T, prefix, magic string) {
	for short, tr := range fixtureTrials() {
		name := prefix + short + ".pdmf"
		file, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := decodeEnvelope(file)
		if err != nil || !bytes.HasPrefix(payload, []byte(magic)) {
			t.Fatalf("%s is not a %s envelope (err=%v)", name, magic[:len(magic)-1], err)
		}
		checkRetiredFile(t, name, file, tr.App, tr.Experiment, tr.Name)
	}
}

// equalColumnBits compares everything two Columns hold, values by bit
// pattern.
func equalColumnBits(a, b *Columns) bool {
	bitsEqual := func(x, y []float64) bool { return len(x) == len(y) && sameBits(x, y) }
	if !reflect.DeepEqual(a.EventNames, b.EventNames) || !reflect.DeepEqual(a.Groups, b.Groups) ||
		!reflect.DeepEqual(a.Metrics, b.Metrics) || !reflect.DeepEqual(a.Metadata, b.Metadata) ||
		a.Threads != b.Threads || len(a.Cols) != len(b.Cols) || !bitsEqual(a.Calls, b.Calls) {
		return false
	}
	for i := range a.Cols {
		x, y := &a.Cols[i], &b.Cols[i]
		if x.Metric != y.Metric || !reflect.DeepEqual(x.IncPresent, y.IncPresent) || !reflect.DeepEqual(x.ExcPresent, y.ExcPresent) ||
			!bitsEqual(x.Inc, y.Inc) || !bitsEqual(x.Exc, y.Exc) {
			return false
		}
	}
	return true
}
