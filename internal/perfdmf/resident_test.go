package perfdmf

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"perfknow/internal/vfs"
)

// The repository keeps every trial as the columns it encoded. These tests
// pin what that must not change: the trial GetTrial hands out is the one
// Trial.Clone used to produce, nothing the caller holds aliases the cache,
// the bytes written are the ones written before, SaveEncoded's canonical
// check on columns accepts exactly what re-encoding the trial accepted, and
// the cache cannot be left behind the disk by a read racing a write.

// genResidentTrial widens genColTrial with the shapes Clone treats
// specially or ColumnsFromTrial orders: a metric registered twice, several
// unregistered metrics first seen on different events, no registered metric
// at all, nil metadata, empty non-nil groups, events without metric maps.
func genResidentTrial(r *rand.Rand, name string, threads int) *Trial {
	t := genColTrial(r, name, threads)
	if r.Intn(4) == 0 {
		t.Metrics = append(t.Metrics, t.Metrics[0])
	}
	for _, m := range []string{"ZZ", "AA", "MM"} {
		for _, e := range t.Events {
			if r.Intn(4) != 0 {
				continue
			}
			vals := make([]float64, threads)
			for th := range vals {
				vals[th] = genColValue(r)
			}
			e.Exclusive[m] = vals
			if r.Intn(2) == 0 {
				e.Inclusive[m] = append([]float64(nil), vals...)
			}
		}
	}
	switch r.Intn(8) {
	case 0:
		t.Metadata = nil
	case 1:
		t.Metrics = nil
	case 2:
		t.Metrics = []string{}
	}
	for _, e := range t.Events {
		switch r.Intn(10) {
		case 0:
			e.Groups = []string{}
		case 1:
			e.Inclusive, e.Exclusive = nil, nil
		}
	}
	return t
}

// sameAsClone fails unless got is, bit for bit and quirk for quirk, what
// want.Clone() is. Values are compared by their bits (reflect.DeepEqual
// calls a NaN unequal to itself), everything else — nil against empty,
// which metrics an event has, the name index — by reflect.DeepEqual once the
// values are blanked. It consumes got.
func sameAsClone(t *testing.T, what string, got, saved *Trial) {
	t.Helper()
	want := saved.Clone()
	if g, w := canonicalTrialDump(got), canonicalTrialDump(want); g != w {
		t.Fatalf("%s: not the trial Clone gives\nwant:\n%s\ngot:\n%s", what, w, g)
	}
	for _, tr := range []*Trial{got, want} {
		for _, e := range tr.Events {
			clear(e.Calls)
			for _, m := range []map[string][]float64{e.Inclusive, e.Exclusive} {
				for _, vals := range m {
					clear(vals)
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: same values as Clone gives, but not reflect.DeepEqual to it (nil against empty, the name index, …)", what)
	}
}

// What GetTrial returns is what it returned when the cache held a Clone and
// handed out a Clone of that: for in-memory and file-backed repositories,
// stored by Save and by SaveEncoded, served from the cache and read cold.
func TestGetTrialMatchesClone(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	dir := t.TempDir()
	mem, disk, viaEncoded := NewRepository(), mustOpen(t, dir), NewRepository()
	trials := []*Trial{{App: "a", Experiment: "e", Name: "bare", Threads: 1}}
	for i := 0; i < 80; i++ {
		trials = append(trials, genResidentTrial(r, "t"+strconv.Itoa(i), 1+r.Intn(4)))
	}
	for _, tr := range trials {
		data, err := EncodeTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := viaEncoded.SaveEncoded(context.Background(), data); err != nil {
			t.Fatalf("%s: SaveEncoded: %v", tr.Name, err)
		}
		for _, repo := range []*Repository{mem, disk} {
			if err := repo.Save(tr); err != nil {
				t.Fatalf("%s: Save: %v", tr.Name, err)
			}
		}
	}
	cold := mustOpen(t, dir)
	for _, tr := range trials {
		for _, c := range []struct {
			what string
			repo *Repository
		}{
			{"in-memory", mem}, {"file-backed warm", disk}, {"SaveEncoded", viaEncoded},
			{"file-backed cold", cold}, {"file-backed after the cold read", cold},
		} {
			got, err := c.repo.GetTrial(tr.App, tr.Experiment, tr.Name)
			if err != nil {
				t.Fatalf("%s %s: %v", c.what, tr.Name, err)
			}
			sameAsClone(t, c.what+" "+tr.Name, got, tr)
		}
	}
}

// Neither the trial given to Save nor a trial GetTrial returned shares
// anything with the cache: writing through them, or appending to their
// slices, changes no later GetTrial and no GetEncoded.
func TestRepositoryTrialsDoNotAlias(t *testing.T) {
	scribble := func(tr *Trial) {
		tr.Metrics[0] = "scribbled"
		tr.Metadata["scribbled"] = "yes"
		for _, e := range tr.Events {
			e.Name += "!"
			e.Calls[0] = -1
			e.Calls = append(e.Calls[:1], -2, -3, -4, -5, -6, -7, -8, -9)
			e.Groups = append(e.Groups, "scribbled")
			for _, m := range []map[string][]float64{e.Inclusive, e.Exclusive} {
				for k, vals := range m {
					vals[0] = -1
					_ = append(vals[:1], -2, -3, -4, -5, -6, -7, -8, -9)
					delete(m, k)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(23))
	for _, repo := range []*Repository{NewRepository(), mustOpen(t, t.TempDir())} {
		for i := 0; i < 20; i++ {
			tr := genResidentTrial(r, "t"+strconv.Itoa(i), 2+r.Intn(3))
			tr.Metadata = map[string]string{"k": "v"}
			tr.Metrics = []string{TimeMetric}
			pristine := tr.Clone()
			wantBytes, err := EncodeTrial(tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := repo.Save(tr); err != nil {
				t.Fatal(err)
			}
			scribble(tr)
			for round := 0; round < 2; round++ {
				got, err := repo.GetTrial(pristine.App, pristine.Experiment, pristine.Name)
				if err != nil {
					t.Fatal(err)
				}
				if canonicalTrialDump(got) != canonicalTrialDump(pristine) {
					t.Fatalf("trial %d round %d: a caller's writes reached the cache", i, round)
				}
				enc, err := repo.GetEncoded(context.Background(), pristine.App, pristine.Experiment, pristine.Name)
				if err != nil || !bytes.Equal(enc, wantBytes) {
					t.Fatalf("trial %d round %d: GetEncoded changed (err=%v)", i, round, err)
				}
				scribble(got)
			}
		}
	}
}

// isPivot is the columns form of SaveEncoded's canonical check: it holds of
// decoded columns exactly when encoding them gives the bytes EncodeTrial
// gives for the trial they hold, which is how the check was made before.
// Every decodable input also holds a trial Validate accepts, so no further
// validity check on columns is needed. Inputs: the generator's trials, each
// also perturbed in every way that leaves the payload decodable but is not
// how ColumnsFromTrial pivots, plus the fuzz corpus.
func TestIsPivotMatchesReencoding(t *testing.T) {
	check := func(what string, c *Columns) {
		t.Helper()
		payload, err := c.Encode()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		d, err := DecodeColumnar(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: decode error does not wrap ErrCorrupt: %v", what, err)
			}
			return
		}
		tr := d.Trial()
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: decoded columns hold an invalid trial: %v", what, err)
		}
		direct, err := d.encodeEnveloped()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		viaTrial, err := EncodeTrial(tr)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got, want := d.isPivot(), bytes.Equal(direct, viaTrial); got != want {
			t.Fatalf("%s: isPivot = %v, re-encoding the trial gives equal bytes = %v", what, got, want)
		}
		// And SaveEncoded acts on it.
		_, err = NewRepository().SaveEncoded(context.Background(), encodeEnvelope(payload))
		if want := bytes.Equal(direct, viaTrial); (err == nil) != want || err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: SaveEncoded = %v, canonical = %v", what, err, want)
		}
	}
	r := rand.New(rand.NewSource(29))
	pivots, perturbed := 0, 0
	for i := 0; i < 150; i++ {
		tr := genResidentTrial(r, "t"+strconv.Itoa(i), 1+r.Intn(3))
		base := func() *Columns {
			c, err := ColumnsFromTrial(tr)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		c := base()
		if !c.isPivot() {
			t.Fatalf("trial %d: ColumnsFromTrial's own output is not a pivot", i)
		}
		check(fmt.Sprintf("trial %d", i), c)
		pivots++
		nEv, nCols := len(c.EventNames), len(c.Cols)
		for _, p := range []struct {
			name    string
			perturb func(c *Columns) bool
		}{
			{"swap two columns", func(c *Columns) bool {
				if nCols < 2 {
					return false
				}
				a := r.Intn(nCols - 1)
				c.Cols[a], c.Cols[a+1] = c.Cols[a+1], c.Cols[a]
				return true
			}},
			{"rotate the columns", func(c *Columns) bool {
				if nCols < 2 {
					return false
				}
				c.Cols = append(c.Cols[1:], c.Cols[0])
				return true
			}},
			{"drop a column", func(c *Columns) bool {
				if nCols == 0 {
					return false
				}
				a := r.Intn(nCols)
				c.Cols = append(c.Cols[:a], c.Cols[a+1:]...)
				return true
			}},
			{"add a column nobody has", func(c *Columns) bool {
				c.Cols = append(c.Cols, MetricColumn{Metric: "NOBODY",
					Inc: make([]float64, nEv*c.Threads), Exc: make([]float64, nEv*c.Threads),
					IncPresent: make([]bool, nEv), ExcPresent: make([]bool, nEv)})
				return true
			}},
			{"values under a clear presence bit", func(c *Columns) bool {
				for ci := range c.Cols {
					for ev, p := range c.Cols[ci].IncPresent {
						if !p {
							c.Cols[ci].Inc[ev*c.Threads] = genColValue(r)
							return true
						}
					}
				}
				return false
			}},
			{"clear a presence bit over values", func(c *Columns) bool {
				if nCols == 0 || nEv == 0 {
					return false
				}
				col := &c.Cols[r.Intn(nCols)]
				ev := r.Intn(nEv)
				col.IncPresent[ev], col.ExcPresent[ev] = false, false
				return true
			}},
			{"register the last column's metric again", func(c *Columns) bool {
				if nCols == 0 {
					return false
				}
				c.Metrics = append(c.Metrics, c.Cols[nCols-1].Metric)
				return true
			}},
			{"unregister the first metric", func(c *Columns) bool {
				if len(c.Metrics) == 0 {
					return false
				}
				c.Metrics = c.Metrics[1:]
				return true
			}},
			{"empty metric list, not null", func(c *Columns) bool {
				if len(c.Metrics) != 0 {
					return false
				}
				c.Metrics = []string{}
				return true
			}},
		} {
			if c := base(); p.perturb(c) {
				check(fmt.Sprintf("trial %d, %s", i, p.name), c)
				perturbed++
			}
		}
	}
	for name, data := range columnarCorpus(t) {
		if payload, err := decodeEnvelope(data); err == nil {
			if c, err := DecodeColumnar(payload); err == nil {
				check("corpus "+name, c)
			}
		}
	}
	if pivots < 100 || perturbed < 500 {
		t.Fatalf("only %d pivots and %d perturbations exercised", pivots, perturbed)
	}
}

// The bytes Save and SaveEncoded write are the bytes they wrote at the commit
// that last changed the encoding: SHA-256 over the files of a fixed set of
// trials. A change to the encoding changes TestSimulatorOutputsPinned too;
// this one holds the repository's own path to the file. Do not edit either
// hash to make the test pass — want moves only in a PR that changes the
// encoding (last: %PDMFCOL4), wantValues never.
func TestStoredBytesPinned(t *testing.T) {
	const want = "41f8d9156671b7e7b960845e594489f57f1d5ab9a727e8a305e85d6389e2e200"
	// wantValues is over what the files decode to (canonicalTrialDump: every
	// name, presence and float bit), whatever the encoding. A PR that changes
	// the encoding re-records want and must leave wantValues untouched in its
	// diff. Recorded at commit 2565d7f, before %PDMFCOL3.
	const wantValues = "258738301d185dc812c8c607e839d13ef00f7ef819ba5fd14baf34bafcd005eb"
	r := rand.New(rand.NewSource(31))
	viaSave, viaEncoded := mustOpen(t, t.TempDir()), mustOpen(t, t.TempDir())
	h, hv := sha256.New(), sha256.New()
	for i := 0; i < 60; i++ {
		tr := genColTrial(r, "t"+strconv.Itoa(i), 1+r.Intn(8))
		if err := viaSave.Save(tr); err != nil {
			t.Fatal(err)
		}
		data, err := EncodeTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := viaEncoded.SaveEncoded(context.Background(), data); err != nil {
			t.Fatal(err)
		}
		a := rawTrialFile(t, viaSave, tr.App, tr.Experiment, tr.Name)
		b := rawTrialFile(t, viaEncoded, tr.App, tr.Experiment, tr.Name)
		if !bytes.Equal(a, data) || !bytes.Equal(b, data) {
			t.Fatalf("trial %d: Save, SaveEncoded and EncodeTrial disagree on the stored bytes", i)
		}
		h.Write(a)
		back, err := DecodeTrial(a)
		if err != nil {
			t.Fatalf("trial %d: stored file does not decode: %v", i, err)
		}
		io.WriteString(hv, canonicalTrialDump(back))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("stored bytes hash to %s, pinned %s", got, want)
	}
	if got := hex.EncodeToString(hv.Sum(nil)); got != wantValues {
		t.Errorf("stored values hash to %s, pinned %s", got, wantValues)
	}
}

// blockingFS lets a test hold one ReadFile between having read the file and
// returning it, which is where a cold GetTrial runs unlocked.
type blockingFS struct {
	vfs.FS
	read    chan struct{} // receives once the held ReadFile has its bytes
	release chan struct{} // closed to let it return
	first   sync.Once     // only the first ReadFile is held
}

func (b *blockingFS) ReadFile(path string) ([]byte, error) {
	data, err := b.FS.ReadFile(path)
	b.first.Do(func() {
		b.read <- struct{}{}
		<-b.release
	})
	return data, err
}

// A cold GetTrial that read its file before a Delete or an overwriting Save
// must not put what it read into the cache afterwards: every later read
// would be served the deleted or older trial while listings and GetEncoded
// follow the disk.
func TestColdReadDoesNotRecacheReplacedTrial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(repo *Repository) error
		after  func(t *testing.T, repo *Repository)
	}{
		{"delete", func(repo *Repository) error { return repo.DeleteContext(context.Background(), "app", "exp", "t1") },
			func(t *testing.T, repo *Repository) {
				if _, err := repo.GetTrial("app", "exp", "t1"); !errors.Is(err, ErrNotFound) {
					t.Fatalf("deleted trial still served: err=%v", err)
				}
			}},
		{"overwrite", func(repo *Repository) error { return repo.Save(miniTrial("app", "exp", "t1", 2)) },
			func(t *testing.T, repo *Repository) {
				got, err := repo.GetTrial("app", "exp", "t1")
				if err != nil || got.Events[0].Inclusive[TimeMetric][0] != 2 {
					t.Fatalf("overwritten trial served from a stale cache entry (err=%v)", err)
				}
			}},
		{"failed overwrite", func(repo *Repository) error {
			repo.fsys.(*blockingFS).FS.(*vfs.Faulty).Inject(vfs.Fault{Op: vfs.OpSyncDir, Err: vfs.ErrFsync, Count: 1})
			if err := repo.Save(miniTrial("app", "exp", "t1", 2)); !errors.Is(err, vfs.ErrFsync) {
				return fmt.Errorf("Save = %v, want the injected fsync failure", err)
			}
			return nil
		},
			func(t *testing.T, repo *Repository) {
				// The rename happened before the directory sync failed.
				got, err := repo.GetTrial("app", "exp", "t1")
				if err != nil || got.Events[0].Inclusive[TimeMetric][0] != 2 {
					t.Fatalf("disk holds the new trial, the cache serves the old (err=%v)", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := mustOpen(t, dir).Save(miniTrial("app", "exp", "t1", 1)); err != nil {
				t.Fatal(err)
			}
			fsys := &blockingFS{FS: vfs.NewFaulty(vfs.OS{}), read: make(chan struct{}), release: make(chan struct{})}
			repo, err := OpenRepositoryFS(dir, fsys)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				got, err := repo.GetTrial("app", "exp", "t1")
				if err == nil && got.Events[0].Inclusive[TimeMetric][0] != 1 {
					err = errors.New("the held read did not return the trial it read")
				}
				done <- err
			}()
			<-fsys.read
			if err := tc.mutate(repo); err != nil {
				t.Fatal(err)
			}
			close(fsys.release)
			if err := <-done; err != nil {
				t.Fatalf("held GetTrial: %v", err)
			}
			tc.after(t, repo)
		})
	}
}

// Cached columns are shared by every reader and replaced by every writer;
// run under -race this is the check that nothing writes to them after they
// are published (Col and EventIndex build maps lazily and must stay off the
// cached value) and that the cache map itself is guarded.
func TestRepositoryConcurrentReaders(t *testing.T) {
	for _, repo := range []*Repository{NewRepository(), mustOpen(t, t.TempDir())} {
		r := rand.New(rand.NewSource(37))
		var trials []*Trial
		for i := 0; i < 4; i++ {
			tr := genColTrial(r, "t"+strconv.Itoa(i), 4)
			trials = append(trials, tr)
			if err := repo.Save(tr); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 150; i++ {
					tr := trials[r.Intn(len(trials))]
					switch r.Intn(8) {
					case 0:
						if err := repo.Save(tr); err != nil {
							t.Errorf("Save: %v", err)
						}
					case 1:
						if err := repo.DeleteContext(context.Background(), tr.App, tr.Experiment, tr.Name); err != nil {
							t.Errorf("Delete: %v", err)
						}
					case 2, 3:
						enc, err := repo.GetEncoded(context.Background(), tr.App, tr.Experiment, tr.Name)
						if err == nil {
							_, err = DecodeTrial(enc)
						}
						if err != nil && !errors.Is(err, ErrNotFound) {
							t.Errorf("GetEncoded: %v", err)
						}
					default:
						got, err := repo.GetTrial(tr.App, tr.Experiment, tr.Name)
						if err != nil {
							if !errors.Is(err, ErrNotFound) {
								t.Errorf("GetTrial: %v", err)
							}
							continue
						}
						if canonicalTrialDump(got) != canonicalTrialDump(tr.Clone()) {
							t.Errorf("GetTrial %s: not the trial saved", tr.Name)
						}
						for _, e := range append(got.Events, got.EnsureEvent("mine")) {
							e.Calls[0]++ // a reader's trial is its own
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
