package perfdmf

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"perfknow/internal/vfs"
)

// A trial reaches the one writer of a payload's rows (encoder.write) two
// ways: straight from the rows trialRows reads, as EncodeTrial,
// MarshalColumnar and a file-backed Save write it, and through the pivot,
// ColumnsFromTrial's copy of those rows, as Columns.Encode and an in-memory
// repository write it. These tests hold the two to each other: the same
// bytes for every trial, and for every trial refused the same error, which
// is Validate's where the trial's shape is at fault.

// pivotEncodeTrial is EncodeTrial through the pivot: ColumnsFromTrial, then
// the columns' encoding, each error wrapped as EncodeTrial wraps it.
func pivotEncodeTrial(tr *Trial) ([]byte, error) {
	c, err := ColumnsFromTrial(tr)
	if err != nil {
		return nil, fmt.Errorf("perfdmf: encode trial: %w", err)
	}
	return c.encodeEnveloped()
}

// pivotSaveError is the error a file-backed Save through the pivot returns
// before it writes: ColumnsFromTrial's, then the encoder's.
func pivotSaveError(tr *Trial) error {
	c, err := ColumnsFromTrial(tr)
	if err != nil {
		return err
	}
	_, err = c.encodeEnveloped()
	return err
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkTrialFrontEnd fails unless EncodeTrial(tr) is pivotEncodeTrial(tr),
// byte for byte or error for error, in one allocation of its exact size.
func checkTrialFrontEnd(t testing.TB, what string, tr *Trial) {
	t.Helper()
	want, wantErr := pivotEncodeTrial(tr)
	got, err := EncodeTrial(tr)
	if errText(err) != errText(wantErr) {
		t.Fatalf("%s: EncodeTrial error %q, through the pivot %q", what, errText(err), errText(wantErr))
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%s: EncodeTrial differs from the pivot's encoding at byte %d of %d/%d", what, at, len(got), len(want))
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: EncodeTrial returned %d bytes with capacity %d", what, len(got), cap(got))
	}
}

// frontEndTrials are the trials the differential test runs: the codec's
// adversarial generators, the trials behind the col4_ fixtures and the
// service benchmark's shapes. The simulator's trials and those the asset
// scripts read are held to the same check in internal/apps and
// internal/diagnosis.
func frontEndTrials() map[string]*Trial {
	trials := map[string]*Trial{
		"empty":  {App: "a", Experiment: "e", Name: "bare", Threads: 1},
		"benchS": benchS.trial(rand.New(rand.NewSource(1)), 0, 0),
		"benchL": benchL.trial(rand.New(rand.NewSource(1)), 0, 0),
	}
	for name, tr := range fixtureTrials() {
		trials["col4_"+name] = tr
	}
	r := rand.New(rand.NewSource(40))
	for i := 0; i < 120; i++ {
		threads := []int{1, 2, 3, 4, 8, 17}[r.Intn(6)]
		name := strconv.Itoa(i)
		trials["genCol"+name] = genColTrial(r, "c"+name, threads)
		trials["genInt"+name] = genIntTrial(r, "i"+name, threads)
		trials["genResident"+name] = genResidentTrial(r, "r"+name, threads)
	}
	return trials
}

func TestTrialFrontEndMatchesPivot(t *testing.T) {
	dir := t.TempDir()
	repo := mustOpen(t, dir)
	for what, tr := range frontEndTrials() {
		checkTrialFrontEnd(t, what, tr)
		// The file-backed Save writes the same bytes.
		if tr.Validate() != nil {
			continue
		}
		if err := repo.Save(tr); err != nil {
			t.Fatalf("%s: Save: %v", what, err)
		}
		want, _ := pivotEncodeTrial(tr)
		if got := rawTrialFile(t, repo, tr.App, tr.Experiment, tr.Name); !bytes.Equal(got, want) {
			t.Fatalf("%s: Save wrote other bytes than the pivot's encoding", what)
		}
	}
}

// Every trial the pivot refuses, EncodeTrial and a file-backed Save refuse
// with the pivot's error; where several faults are in one trial, the one
// the pivot meets first. Validate, ColumnsFromTrial and both kinds of Save
// give one error for a trial of the wrong shape, and accept the one trial
// here that only an encoder refuses.
func TestTrialFrontEndRefusesAsPivot(t *testing.T) {
	base := func(name string) *Trial {
		tr := NewTrial("a", "e", name, 2)
		tr.AddMetric(TimeMetric)
		for _, ev := range []string{"main", "loop", "main => loop"} {
			e := tr.EnsureEvent(ev)
			for th := 0; th < 2; th++ {
				e.Calls[th] = 1
				e.SetValue(TimeMetric, th, 3, 2)
			}
		}
		return tr
	}
	const overBound = "over-bound callpath names"
	cases := map[string]func(tr *Trial){
		"zero threads":     func(tr *Trial) { tr.Threads = 0 },
		"negative threads": func(tr *Trial) { tr.Threads = -3 },
		"duplicate event":  func(tr *Trial) { tr.Events = append(tr.Events, &Event{Name: "loop", Calls: []float64{1, 1}}) },
		"short calls":      func(tr *Trial) { tr.Events[1].Calls = tr.Events[1].Calls[:1] },
		"long inclusive":   func(tr *Trial) { tr.Events[2].Inclusive[TimeMetric] = []float64{1, 2, 3} },
		"short exclusive":  func(tr *Trial) { tr.Events[0].Exclusive[TimeMetric] = []float64{1} },
		// An exclusive-only row is held to Threads entries like any other.
		"short exclusive-only metric": func(tr *Trial) { tr.Events[1].Exclusive["EXTRA"] = []float64{1} },
		"short unregistered inclusive": func(tr *Trial) {
			tr.Events[2].Inclusive["EXTRA"] = []float64{1}
			tr.Events[2].Exclusive["EXTRA"] = []float64{1, 2}
		},
		// The decoder would call this one corrupt.
		"inclusive without exclusive": func(tr *Trial) { tr.Events[1].Inclusive["EXTRA"] = []float64{1, 2} },
		"a bad length before a duplicate": func(tr *Trial) {
			tr.Events[1].Exclusive[TimeMetric] = []float64{1}
			tr.Events = append(tr.Events, &Event{Name: "main", Calls: []float64{1, 1}})
		},
		"a duplicate before a bad length": func(tr *Trial) {
			tr.Events[1].Name = "main"
			tr.Events[2].Calls = nil
		},
		"calls before metrics": func(tr *Trial) {
			tr.Events[1].Calls = []float64{1, 2, 3}
			tr.Events[1].Inclusive[TimeMetric] = nil
		},
		"columns in order": func(tr *Trial) {
			tr.Events[1].Exclusive["ZZ"] = []float64{1}
			tr.Events[1].Exclusive["AA"] = []float64{1, 2, 3}
		},
		// Callpath names spelling out more than the decode bound, each a
		// substring of one string of about 2 MiB: the trial's shape is
		// sound, and only an encoder refuses it.
		overBound: func(tr *Trial) {
			step := len("x" + CallpathSeparator)
			path := strings.Repeat("x"+CallpathSeparator, 2<<20/step) + "x"
			tr.Threads, tr.Metrics, tr.Events = 1, nil, nil
			for i := 0; i < 200; i++ {
				tr.Events = append(tr.Events, &Event{Name: path[i*step:], Calls: []float64{1}})
			}
		},
	}
	dir := t.TempDir()
	repo, mem := mustOpen(t, dir), NewRepository()
	for name, mutate := range cases {
		tr := base(name)
		mutate(tr)
		checkTrialFrontEnd(t, name, tr)
		want := pivotSaveError(tr)
		if want == nil {
			t.Fatalf("%s: the pivot accepts the trial", name)
		}
		if err := repo.Save(tr); errText(err) != errText(want) {
			t.Errorf("%s: Save error %q, through the pivot %q", name, errText(err), errText(want))
		}
		valid := tr.Validate()
		_, pivotErr := ColumnsFromTrial(tr)
		memErr := mem.Save(tr)
		if name == overBound {
			if valid != nil || pivotErr != nil || memErr != nil {
				t.Errorf("%s: Validate = %q, ColumnsFromTrial = %q, in-memory Save = %q; want all to accept it",
					name, errText(valid), errText(pivotErr), errText(memErr))
			}
			continue
		}
		if errText(valid) != errText(want) || errText(pivotErr) != errText(want) || errText(memErr) != errText(want) {
			t.Errorf("%s: Validate = %q, ColumnsFromTrial = %q, in-memory Save = %q; want Save's %q",
				name, errText(valid), errText(pivotErr), errText(memErr), errText(want))
		}
	}
	if names := repo.Trials("a", "e"); len(names) != 0 {
		t.Errorf("refused trials were stored: %v", names)
	}
	if names := mem.Trials("a", "e"); len(names) != 1 || names[0] != overBound {
		t.Errorf("in memory, the trials stored are %v, want only %q", names, overBound)
	}
}

// Neither encoder writes a column with inclusive data but no exclusive data
// on an event, which DecodeTrial would refuse as corrupt. EncodeTrial
// refuses such a trial with Validate's error, as Save does; Columns.Encode
// refuses such columns before writing, naming the event and the metric.
func TestEncodersRefuseInclusiveWithoutExclusive(t *testing.T) {
	tr := NewTrial("a", "e", "t", 2)
	tr.AddMetric(TimeMetric)
	for _, name := range []string{"main", "loop"} {
		e := tr.EnsureEvent(name)
		e.Calls[0], e.Calls[1] = 1, 1
	}
	tr.Events[1].Inclusive["EXTRA"] = []float64{1, 2}
	valid := `perfdmf: event "loop" metric "EXTRA" has inclusive but no exclusive data`
	if err := tr.Validate(); errText(err) != valid {
		t.Fatalf("Validate = %q, want %q", errText(err), valid)
	}
	if enc, err := EncodeTrial(tr); errText(err) != "perfdmf: encode trial: "+valid {
		_, decErr := DecodeTrial(enc)
		t.Errorf("EncodeTrial = %q (decoding its bytes: %v), want %q", errText(err), decErr, "perfdmf: encode trial: "+valid)
	}
	if err := mustOpen(t, t.TempDir()).Save(tr); errText(err) != valid {
		t.Errorf("Save = %q, want Validate's %q", errText(err), valid)
	}
	tr.Events[1].Exclusive["EXTRA"] = []float64{0, 0}
	c, err := ColumnsFromTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	c.Col("EXTRA").ExcPresent[1] = false
	want := `perfdmf: encode columnar "t": event "loop" metric "EXTRA" has inclusive but no exclusive data`
	if _, err := c.Encode(); errText(err) != want {
		t.Errorf("Columns.Encode = %q, want %q", errText(err), want)
	}
}

// A trial whose value blocks would decode past maxDecodedBytes is refused
// by EncodeTrial and Save with the encoder's error, before anything is
// sized by it: every row of it is one slice, so it holds 512 KiB while the
// pivot would clear 2 GiB of blocks.
func TestTrialFrontEndRefusesOverBoundBeforeSizing(t *testing.T) {
	const threads, events, metrics = 1 << 16, 64, 32
	row := make([]float64, threads)
	tr := NewTrial("a", "e", "huge", threads)
	for m := 0; m < metrics; m++ {
		tr.AddMetric("M" + strconv.Itoa(m))
	}
	for ev := 0; ev < events; ev++ {
		e := &Event{Name: "e" + strconv.Itoa(ev), Calls: row,
			Inclusive: map[string][]float64{}, Exclusive: map[string][]float64{}}
		for _, m := range tr.Metrics {
			e.Inclusive[m], e.Exclusive[m] = row, row
		}
		tr.Events = append(tr.Events, e)
	}
	want := fmt.Sprintf("perfdmf: encode trial: perfdmf: encode columnar %q: %d×%d values in %d columns exceed the %d-byte decode bound",
		"huge", events, threads, metrics, maxDecodedBytes)
	repo := mustOpen(t, t.TempDir())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, encErr := EncodeTrial(tr)
	saveErr := repo.Save(tr)
	runtime.ReadMemStats(&after)
	if errText(encErr) != want || errText(saveErr) != want {
		t.Fatalf("EncodeTrial = %q, Save = %q; want %q", errText(encErr), errText(saveErr), want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("refusing it allocated %d bytes", alloc)
	}
}

// FuzzEncodeTrial holds EncodeTrial to the pivot, and DecodeTrial to
// reading whatever EncodeTrial writes, on generated trials whose values the
// fuzzer writes: data is read as 8-byte bit patterns, laid over the trial's
// rows in order (calls, then each metric's inclusive and exclusive rows),
// every value zeroed below its top keep bytes so the narrow widths and
// integer rows are reached.
func FuzzEncodeTrial(f *testing.F) {
	var seed []byte
	for _, b := range packedRowEdgeValues {
		seed = binary.BigEndian.AppendUint64(seed, b)
	}
	for i := int64(0); i < 4; i++ {
		f.Add(i, uint8(i), uint8(8), []byte{})
		f.Add(i, uint8(2*i+1), uint8(i+2), seed)
	}
	f.Fuzz(func(t *testing.T, genSeed int64, threadsArg, keep uint8, data []byte) {
		r := rand.New(rand.NewSource(genSeed))
		threads := 1 + int(threadsArg%9)
		var tr *Trial
		switch threadsArg / 9 % 3 {
		case 0:
			tr = genIntTrial(r, "f", threads)
		case 1:
			tr = genResidentTrial(r, "f", threads)
		default:
			tr = genColTrial(r, "f", threads)
		}
		mask := ^uint64(0) << (8 * (8 - uint(1+keep%8)))
		lay := func(row []float64) {
			for i := range row {
				if len(data) < 8 {
					return
				}
				row[i] = math.Float64frombits(binary.BigEndian.Uint64(data) & mask)
				data = data[8:]
			}
		}
		for _, e := range tr.Events {
			lay(e.Calls)
			for _, m := range tr.Metrics {
				lay(e.Inclusive[m])
				lay(e.Exclusive[m])
			}
		}
		checkTrialFrontEnd(t, "fuzzed trial", tr)
		// What the encoder writes, the decoder reads.
		if enc, err := EncodeTrial(tr); err == nil {
			if _, err := DecodeTrial(enc); err != nil {
				t.Fatalf("DecodeTrial refuses what EncodeTrial wrote: %v", err)
			}
		}
	})
}

// readCountFS counts the trial files a repository reads.
type readCountFS struct {
	vfs.FS
	reads atomic.Int32
}

func (c *readCountFS) ReadFile(path string) ([]byte, error) {
	c.reads.Add(1)
	return c.FS.ReadFile(path)
}

func (r *Repository) cached(app, experiment, trial string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.cache[key(app, experiment, trial)]
	return ok
}

// On a file-backed repository reads fill the cache and writes only empty
// it: after Save or SaveEncoded the trial is not cached — not even when a
// read had cached its older version — the next GetTrial reads the file and
// caches it, and the one after is served from the cache. An in-memory
// repository, whose cache is the store, serves a write from it at once.
func TestWritesDoNotFillCache(t *testing.T) {
	ctx := context.Background()
	old, tr := miniTrial("app", "exp", "t1", 1), miniTrial("app", "exp", "t1", 2)
	enc, err := EncodeTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	writes := map[string]func(r *Repository) error{
		"Save": func(r *Repository) error { return r.Save(tr) },
		"SaveEncoded": func(r *Repository) error {
			_, err := r.SaveEncoded(ctx, enc)
			return err
		},
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			fsys := &readCountFS{FS: vfs.OS{}}
			repo, err := OpenRepositoryFS(t.TempDir(), fsys)
			if err != nil {
				t.Fatal(err)
			}
			if err := repo.Save(old); err != nil {
				t.Fatal(err)
			}
			if _, err := repo.GetTrial("app", "exp", "t1"); err != nil || !repo.cached("app", "exp", "t1") {
				t.Fatalf("a cold read did not fill the cache (err=%v)", err)
			}
			if err := write(repo); err != nil {
				t.Fatal(err)
			}
			if repo.cached("app", "exp", "t1") {
				t.Fatal("the trial is cached after the write")
			}
			for i, wantReads := range []int32{2, 2} {
				got, err := repo.GetTrial("app", "exp", "t1")
				if err != nil || got.Events[0].Inclusive[TimeMetric][0] != 2 {
					t.Fatalf("read %d after the write: not the trial written (err=%v)", i, err)
				}
				if n := fsys.reads.Load(); n != wantReads || !repo.cached("app", "exp", "t1") {
					t.Fatalf("read %d after the write: %d file reads in all, want %d, cached %v", i, n, wantReads, repo.cached("app", "exp", "t1"))
				}
			}
		})
	}
	for name, write := range writes {
		mem := NewRepository()
		if err := write(mem); err != nil {
			t.Fatal(err)
		}
		got, err := mem.GetTrial("app", "exp", "t1")
		if !mem.cached("app", "exp", "t1") || err != nil || got.Events[0].Inclusive[TimeMetric][0] != 2 {
			t.Fatalf("in-memory %s: not served from the cache (err=%v)", name, err)
		}
	}
}
