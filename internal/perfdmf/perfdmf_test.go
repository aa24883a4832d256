package perfdmf

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"
)

// makeTrial builds a small but representative trial: 4 threads, two
// metrics, a main event, two worker events and one callpath event, plus
// metadata with characters that exercise XML escaping.
func makeTrial() *Trial {
	t := NewTrial("Fluid Dynamic", "rib 90", "1_16", 4)
	t.AddMetric(TimeMetric)
	t.AddMetric("CPU_CYCLES")
	t.Metadata["schedule"] = `dynamic,1 <&">`
	t.Metadata["problem"] = "90rib"

	main := t.EnsureEvent("main")
	inner := t.EnsureEvent("bicgstab")
	outer := t.EnsureEvent("exchange_var")
	cp := t.EnsureEvent("main => bicgstab")
	for th := 0; th < 4; th++ {
		f := float64(th + 1)
		main.Calls[th] = 1
		main.SetValue(TimeMetric, th, 1000, 100)
		main.SetValue("CPU_CYCLES", th, 1.5e6, 1.5e5)
		inner.Calls[th] = 10
		inner.SetValue(TimeMetric, th, 600*f, 600*f)
		inner.SetValue("CPU_CYCLES", th, 9e5*f, 9e5*f)
		outer.Calls[th] = 10
		outer.SetValue(TimeMetric, th, 300/f, 300/f)
		outer.SetValue("CPU_CYCLES", th, 4.5e5/f, 4.5e5/f)
		cp.Calls[th] = 10
		cp.SetValue(TimeMetric, th, 600*f, 600*f)
		cp.SetValue("CPU_CYCLES", th, 9e5*f, 9e5*f)
	}
	inner.Groups = []string{"LOOP"}
	return t
}

func TestTrialBasics(t *testing.T) {
	tr := makeTrial()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !tr.HasMetric("CPU_CYCLES") || tr.HasMetric("NOPE") {
		t.Fatal("HasMetric wrong")
	}
	tr.AddMetric("CPU_CYCLES") // idempotent
	if len(tr.Metrics) != 2 {
		t.Fatalf("duplicate metric added: %v", tr.Metrics)
	}
	if e := tr.Event("bicgstab"); e == nil || e.Name != "bicgstab" {
		t.Fatal("Event lookup failed")
	}
	if tr.Event("missing") != nil {
		t.Fatal("missing event should be nil")
	}
	names := tr.EventNames()
	if len(names) != 3 {
		t.Fatalf("EventNames should exclude callpaths: %v", names)
	}
}

// EnsureEvent cuts an event's calls and rows from one block: a write to one
// row, or an append to it, leaves every other row as it was, and making an
// event takes no more allocations with a hundred metrics than with ten.
func TestEnsureEventRowsAreApart(t *testing.T) {
	tr := NewTrial("a", "e", "t", 3)
	for _, m := range []string{TimeMetric, "A", "B"} {
		tr.AddMetric(m)
	}
	e := tr.EnsureEvent("main")
	rows := [][]float64{e.Calls}
	for _, m := range tr.Metrics {
		rows = append(rows, e.Inclusive[m], e.Exclusive[m])
	}
	for i, row := range rows {
		if len(row) != 3 || cap(row) != 3 {
			t.Fatalf("row %d has length %d and capacity %d, want 3 and 3", i, len(row), cap(row))
		}
	}
	for i, row := range rows {
		row[2] = float64(i + 1)
		grown := append(row, -1)
		grown[0] = -1
	}
	for i, row := range rows {
		if want := []float64{0, 0, float64(i + 1)}; fmt.Sprint(row) != fmt.Sprint(want) {
			t.Errorf("row %d is %v after every row was written and appended to, want %v", i, row, want)
		}
	}

	// The maps' own layout changes with their size (a map of up to eight
	// entries is one group), so ten metrics is the baseline, not one.
	allocs := func(metrics int) float64 {
		tr := NewTrial("a", "e", "t", 4)
		for m := 0; m < metrics; m++ {
			tr.AddMetric(fmt.Sprintf("M%d", m))
		}
		names := make([]string, 101)
		for i := range names {
			names[i] = fmt.Sprintf("e%d", i)
		}
		n := 0
		return testing.AllocsPerRun(100, func() {
			tr.EnsureEvent(names[n])
			n++
		})
	}
	if ten, hundred := allocs(10), allocs(100); hundred > ten {
		t.Errorf("EnsureEvent allocated %v times with ten metrics, %v with a hundred", ten, hundred)
	}
}

func TestCallpathHelpers(t *testing.T) {
	tr := makeTrial()
	cp := tr.Event("main => bicgstab")
	if !cp.IsCallpath() {
		t.Fatal("callpath not detected")
	}
	if tr.Event("main").IsCallpath() {
		t.Fatal("flat event detected as a callpath")
	}
}

func TestMainEvent(t *testing.T) {
	tr := makeTrial()
	me := tr.MainEvent(TimeMetric)
	// bicgstab mean inclusive = 600*(1+2+3+4)/4 = 1500 > main's 1000.
	if me == nil || me.Name != "bicgstab" {
		t.Fatalf("MainEvent = %v", me)
	}
	empty := NewTrial("a", "b", "c", 1)
	if empty.MainEvent(TimeMetric) != nil {
		t.Fatal("MainEvent of empty trial should be nil")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := makeTrial()
	tr.Event("main").Calls = tr.Event("main").Calls[:2]
	if tr.Validate() == nil {
		t.Fatal("Validate accepted truncated Calls")
	}

	tr = makeTrial()
	tr.Event("main").Inclusive[TimeMetric] = []float64{1}
	if tr.Validate() == nil {
		t.Fatal("Validate accepted truncated metric slice")
	}

	tr = makeTrial()
	delete(tr.Event("main").Exclusive, TimeMetric)
	if tr.Validate() == nil {
		t.Fatal("Validate accepted inclusive-without-exclusive")
	}

	tr = makeTrial()
	tr.Events = append(tr.Events, tr.Events[0])
	if tr.Validate() == nil {
		t.Fatal("Validate accepted duplicate event")
	}
}

func TestClone(t *testing.T) {
	tr := makeTrial()
	cp := tr.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	cp.Event("main").Inclusive[TimeMetric][0] = -1
	cp.Metadata["schedule"] = "static"
	if tr.Event("main").Inclusive[TimeMetric][0] == -1 {
		t.Fatal("clone shares inclusive slice with original")
	}
	if tr.Metadata["schedule"] == "static" {
		t.Fatal("clone shares metadata with original")
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 || Sum(xs) != 10 {
		t.Fatal("Mean/Sum wrong")
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{5}) != 0 {
		t.Fatal("empty-input stats wrong")
	}
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %g, want 2", got)
	}
	if c := Correlation([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(c-1) > 1e-12 {
		t.Fatalf("perfect correlation = %g", c)
	}
	if c := Correlation([]float64{1, 2, 3}, []float64{6, 4, 2}); math.Abs(c+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %g", c)
	}
	if Correlation([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("constant series should correlate 0")
	}
	if Correlation([]float64{1, 2}, []float64{1}) != 0 {
		t.Fatal("mismatched lengths should correlate 0")
	}
}

func TestRepositoryInMemory(t *testing.T) {
	repo := NewRepository()
	tr := makeTrial()
	if err := repo.Save(tr); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := repo.GetTrial("Fluid Dynamic", "rib 90", "1_16")
	if err != nil {
		t.Fatalf("GetTrial: %v", err)
	}
	if got == tr {
		t.Fatal("GetTrial must return a private copy, not the cached object")
	}
	if got.Threads != tr.Threads || len(got.Events) != len(tr.Events) {
		t.Fatalf("copy diverges from original: %+v", got)
	}
	// Copy-on-read: mutating the returned trial must not corrupt the cache.
	got.Events[0].Inclusive[TimeMetric][0] = -1
	again, err := repo.GetTrial("Fluid Dynamic", "rib 90", "1_16")
	if err != nil {
		t.Fatalf("GetTrial: %v", err)
	}
	if again.Events[0].Inclusive[TimeMetric][0] == -1 {
		t.Fatal("mutation of a returned trial leaked into the repository cache")
	}
	if _, err := repo.GetTrial("nope", "x", "y"); err == nil {
		t.Fatal("missing trial should error")
	}
	if apps := repo.Applications(); len(apps) != 1 || apps[0] != "Fluid Dynamic" {
		t.Fatalf("Applications = %v", apps)
	}
	if exps := repo.Experiments("Fluid Dynamic"); len(exps) != 1 || exps[0] != "rib 90" {
		t.Fatalf("Experiments = %v", exps)
	}
	if trials := repo.Trials("Fluid Dynamic", "rib 90"); len(trials) != 1 || trials[0] != "1_16" {
		t.Fatalf("Trials = %v", trials)
	}
	if err := repo.DeleteContext(context.Background(), "Fluid Dynamic", "rib 90", "1_16"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := repo.GetTrial("Fluid Dynamic", "rib 90", "1_16"); err == nil {
		t.Fatal("deleted trial still present")
	}
}

func TestRepositoryFileBacked(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := makeTrial()
	if err := repo.Save(tr); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// A fresh repository over the same directory must reload from disk.
	repo2, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := repo2.GetTrial("Fluid Dynamic", "rib 90", "1_16")
	if err != nil {
		t.Fatalf("GetTrial from disk: %v", err)
	}
	if got.Threads != 4 || got.Metadata["problem"] != "90rib" {
		t.Fatalf("round-trip lost data: %+v", got)
	}
	want := tr.Event("bicgstab").Inclusive[TimeMetric]
	gotVals := got.Event("bicgstab").Inclusive[TimeMetric]
	for i := range want {
		if want[i] != gotVals[i] {
			t.Fatalf("thread %d inclusive mismatch: %g vs %g", i, gotVals[i], want[i])
		}
	}

	if err := repo2.DeleteContext(context.Background(), "Fluid Dynamic", "rib 90", "1_16"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := OpenRepository(filepath.Join(dir, "sub")); err != nil {
		t.Fatalf("OpenRepository nested: %v", err)
	}
}

func TestRepositorySaveRejectsInvalid(t *testing.T) {
	repo := NewRepository()
	tr := makeTrial()
	tr.Event("main").Calls = nil
	if err := repo.Save(tr); err == nil {
		t.Fatal("Save accepted invalid trial")
	}
}

func TestTAURoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := makeTrial()
	if err := WriteTAU(dir, tr); err != nil {
		t.Fatalf("WriteTAU: %v", err)
	}
	got, err := ParseTAU(dir, tr.App, tr.Experiment, tr.Name)
	if err != nil {
		t.Fatalf("ParseTAU: %v", err)
	}
	if got.Threads != tr.Threads {
		t.Fatalf("threads = %d, want %d", got.Threads, tr.Threads)
	}
	if len(got.Metrics) != 2 {
		t.Fatalf("metrics = %v", got.Metrics)
	}
	// Metric names pass through safe(): spaces would be rewritten, but ours
	// have none, just check both are present.
	if !got.HasMetric("TIME") || !got.HasMetric("CPU_CYCLES") {
		t.Fatalf("metrics = %v", got.Metrics)
	}
	for _, name := range []string{"main", "bicgstab", "exchange_var", "main => bicgstab"} {
		we, ge := tr.Event(name), got.Event(name)
		if ge == nil {
			t.Fatalf("event %q missing after round trip", name)
		}
		for th := 0; th < tr.Threads; th++ {
			if we.Calls[th] != ge.Calls[th] {
				t.Fatalf("%q thread %d calls %g != %g", name, th, ge.Calls[th], we.Calls[th])
			}
			if we.Inclusive["TIME"][th] != ge.Inclusive["TIME"][th] {
				t.Fatalf("%q thread %d inclusive mismatch", name, th)
			}
			if we.Exclusive["CPU_CYCLES"][th] != ge.Exclusive["CPU_CYCLES"][th] {
				t.Fatalf("%q thread %d exclusive mismatch", name, th)
			}
		}
	}
	// Metadata round-trips, including XML-escaped characters.
	if got.Metadata["schedule"] != `dynamic,1 <&">` {
		t.Fatalf("metadata schedule = %q", got.Metadata["schedule"])
	}
	// Groups survive.
	if g := got.Event("bicgstab").Groups; len(g) != 1 || g[0] != "LOOP" {
		t.Fatalf("groups = %v", g)
	}
}

func TestParseTAUErrors(t *testing.T) {
	if _, err := ParseTAU(t.TempDir(), "a", "b", "c"); err == nil {
		t.Fatal("empty dir should fail")
	}
	if _, err := ParseTAU("/nonexistent-path-xyz", "a", "b", "c"); err == nil {
		t.Fatal("missing dir should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := makeTrial()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Threads != 4 || got.App != tr.App || got.Name != tr.Name {
		t.Fatalf("identity lost: %+v", got)
	}
	for _, name := range []string{"main", "bicgstab", "exchange_var"} {
		for th := 0; th < 4; th++ {
			if got.Event(name).Inclusive["TIME"][th] != tr.Event(name).Inclusive["TIME"][th] {
				t.Fatalf("%s thread %d mismatch", name, th)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("only,a,header\n")); err == nil {
		t.Fatal("header-only CSV should fail")
	}
	bad := "application,experiment,trial,event,metric,thread,calls,exclusive,inclusive\na,b,c,e,m,notanint,1,2,3\n"
	if _, err := ReadCSV(bytes.NewBufferString(bad)); err == nil {
		t.Fatal("malformed thread index should fail")
	}
}

func TestRepositoryConcurrentAccess(t *testing.T) {
	repo := NewRepository()
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				tr := NewTrial("app", "exp", fmt.Sprintf("t%d_%d", w, i), 1)
				tr.AddMetric(TimeMetric)
				tr.EnsureEvent("e").SetValue(TimeMetric, 0, 1, 1)
				if err := repo.Save(tr); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
		go func() {
			for i := 0; i < 20; i++ {
				repo.Applications()
				repo.Trials("app", "exp")
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(repo.Trials("app", "exp")); got != 80 {
		t.Fatalf("trials after concurrent writes: %d", got)
	}
}

// Property: Clone always produces a trial that validates and is value-equal
// on a random event/metric/thread probe.
func TestQuickCloneFidelity(t *testing.T) {
	tr := makeTrial()
	cp := tr.Clone()
	f := func(ei, ti uint8) bool {
		e := tr.Events[int(ei)%len(tr.Events)]
		th := int(ti) % tr.Threads
		ce := cp.Event(e.Name)
		return ce != nil &&
			ce.Calls[th] == e.Calls[th] &&
			ce.Inclusive["TIME"][th] == e.Inclusive["TIME"][th] &&
			ce.Exclusive["CPU_CYCLES"][th] == e.Exclusive["CPU_CYCLES"][th]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
