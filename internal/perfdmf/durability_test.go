package perfdmf

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"testing/quick"

	"perfknow/internal/vfs"
)

// miniTrial builds a minimal valid trial at the given coordinates.
func miniTrial(app, exp, name string, val float64) *Trial {
	tr := NewTrial(app, exp, name, 1)
	tr.AddMetric(TimeMetric)
	e := tr.EnsureEvent("main")
	e.Calls[0] = 1
	e.SetValue(TimeMetric, 0, val, val)
	return tr
}

// trialFiles walks root and returns rel path → contents for every regular
// file with the given suffix ("" = all files).
func trialFiles(t *testing.T, root, suffix string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if suffix != "" && !strings.HasSuffix(p, suffix) {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		out[filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// onlyKey returns the single key of m.
func onlyKey(t *testing.T, m map[string][]byte) string {
	t.Helper()
	if len(m) != 1 {
		t.Fatalf("want exactly one file, have %v", len(m))
	}
	for k := range m {
		return k
	}
	return ""
}

// --- envelope ----------------------------------------------------------

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte(`{"application":"a","name":"t"}`)
	env := encodeEnvelope(payload)
	got, err := decodeEnvelope(env)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("decode(encode(p)) = %q, err=%v", got, err)
	}
}

// TestEnvelopeRefusesBareJSON: trial JSON with no envelope, the oldest stored
// form, is not passed through any more: it is refused, and by name.
func TestEnvelopeRefusesBareJSON(t *testing.T) {
	got, err := decodeEnvelope([]byte("  \n{\"application\":\"a\"}"))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "-fsck` of the previous release") || got != nil {
		t.Fatalf("decodeEnvelope(bare JSON) = %q, %v", got, err)
	}
}

func TestEnvelopeCorruptionDetected(t *testing.T) {
	env := encodeEnvelope([]byte(`{"application":"a","x":"yyyyyyyyyyyyyyyy"}`))
	cases := map[string][]byte{
		"flipped payload byte":  flipByte(env, len(envelopeMagic)+5),
		"flipped crc digit":     flipByte(env, len(env)-10),
		"truncated mid-payload": env[:len(env)/2],
		"truncated trailer":     env[:len(env)-4],
		"empty":                 {},
		"junk":                  []byte("not json at all"),
		"magic only":            []byte(envelopeMagic),
	}
	for name, data := range cases {
		if _, err := decodeEnvelope(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// --- envelope on disk, legacy compatibility ----------------------------

// The two stored forms older than the previous one — trial JSON, bare and
// inside the envelope — are refused by name on every read path, and the file
// is set aside intact: the previous release's fsck can still rewrite it.
func TestRetiredJSONFormsRefusedNothingLost(t *testing.T) {
	tr := miniTrial("app", "exp", "t1", 100)
	plain, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	named := func(err error) bool {
		return errors.Is(err, ErrCorrupt) && strings.Contains(err.Error(), "-fsck` of the previous release")
	}
	reads := map[string]func(*Repository) error{
		"GetTrial": func(r *Repository) error {
			_, err := r.GetTrial("app", "exp", "t1")
			return err
		},
		"GetEncoded": func(r *Repository) error {
			_, err := r.GetEncoded(context.Background(), "app", "exp", "t1")
			return err
		},
		"Verify": nil, // the scan itself finds the file
	}
	for form, file := range map[string][]byte{"plain JSON": plain, "JSON in the envelope": encodeEnvelope(plain)} {
		if _, err := DecodeTrial(file); !named(err) {
			t.Errorf("%s: DecodeTrial = %v, want ErrCorrupt naming the previous release's -fsck", form, err)
		}
		for name, read := range reads {
			dir := t.TempDir()
			p := filepath.Join(dir, safe("app"), safe("exp"), safe("t1")+".json")
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, file, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadTrialFile(p); !named(err) {
				t.Errorf("%s: ReadTrialFile = %v, want ErrCorrupt naming the previous release's -fsck", form, err)
			}
			repo, err := OpenRepository(dir)
			if err != nil {
				t.Fatal(err)
			}
			if read != nil {
				if err := read(repo); !named(err) {
					t.Errorf("%s: %s = %v, want ErrCorrupt naming the previous release's -fsck", form, name, err)
				}
			}
			rep, err := repo.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Trials != 0 || rep.Legacy != 0 || rep.Upgraded != 0 || rep.Clean() ||
				len(rep.Quarantined) != 1 || rep.Quarantined[0] != "app/exp/t1.json.corrupt" {
				t.Errorf("%s: Verify after %s = %+v, want the file under quarantined and nothing else", form, name, rep)
			}
			if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: %s left the file in place (%v)", form, name, err)
			}
			if aside, err := os.ReadFile(p + ".corrupt"); err != nil || !bytes.Equal(aside, file) {
				t.Errorf("%s: %s: the .corrupt sibling is not the file, byte for byte (%v)", form, name, err)
			}
		}
	}
}

// The path is the name: a valid trial file at another trial's path (the
// underscore scheme of old releases put "my app" where "my_app" lives, or a
// copy by hand) is damage like any other. A cold GetTrial, a GetEncoded and
// Verify each quarantine it, byte for byte, and the name its path spells is
// listed no more.
func TestMisplacedFileIsQuarantined(t *testing.T) {
	ctx := context.Background()
	data, err := EncodeTrial(miniTrial("my app", "exp one", "trial 1", 7))
	if err != nil {
		t.Fatal(err)
	}
	for call, check := range map[string]func(r *Repository) error{
		"GetTrial": func(r *Repository) error {
			_, err := r.GetTrial("my_app", "exp_one", "trial_1")
			return err
		},
		"GetEncoded": func(r *Repository) error {
			_, err := r.GetEncoded(ctx, "my_app", "exp_one", "trial_1")
			return err
		},
		"Verify": func(r *Repository) error {
			rep, err := r.Verify()
			if err != nil || rep.Clean() || rep.Trials != 0 ||
				!reflect.DeepEqual(rep.Quarantined, []string{"my_app/exp_one/trial_1.json.corrupt"}) {
				t.Errorf("Verify = %+v, %v; want the one file quarantined, unclean", rep, err)
			}
			return ErrCorrupt
		},
	} {
		dir := t.TempDir()
		lp := filepath.Join(dir, "my_app", "exp_one", "trial_1.json")
		if err := os.MkdirAll(filepath.Dir(lp), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		repo := mustOpen(t, dir)
		if trials := repo.Trials("my_app", "exp_one"); !reflect.DeepEqual(trials, []string{"trial_1"}) {
			t.Fatalf("Trials before %s = %v, want the name the path spells", call, trials)
		}
		if err := check(repo); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s = %v, want ErrCorrupt", call, err)
		}
		if kept, err := os.ReadFile(lp + ".corrupt"); err != nil || !bytes.Equal(kept, data) {
			t.Errorf("%s: the file was not set aside intact (err=%v)", call, err)
		}
		if q, _, _ := repo.StoreStats(); q != 1 {
			t.Errorf("%s quarantined %d files, want 1", call, q)
		}
		if apps := repo.Applications(); len(apps) != 0 {
			t.Errorf("Applications after %s = %v, want none", call, apps)
		}
		if _, err := repo.GetTrial("my app", "exp one", "trial 1"); !errors.Is(err, ErrNotFound) {
			t.Errorf("the trial the file holds is served after %s: %v", call, err)
		}
	}
}

// --- quarantine --------------------------------------------------------

// A corrupted trial file is quarantined on read: GetTrial fails with the
// ErrCorrupt sentinel, the file moves to .corrupt, and sibling trials and
// listings are unaffected.
func TestCorruptTrialQuarantined(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("app", "exp", "good", 1)); err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("app", "exp", "bad", 2)); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the "bad" trial's file.
	var badPath string
	for rel := range trialFiles(t, dir, ".json") {
		if strings.Contains(rel, "bad") {
			badPath = filepath.Join(dir, filepath.FromSlash(rel))
		}
	}
	raw, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, flipByte(raw, len(raw)/2), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh repository (no cache) trips over the corruption.
	repo2, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = repo2.GetTrial("app", "exp", "bad")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt read error = %v, want ErrCorrupt sentinel", err)
	}
	if _, err := os.Stat(badPath + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	if _, err := os.Stat(badPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt file still in place after quarantine")
	}
	if q, _, _ := repo2.StoreStats(); q != 1 {
		t.Fatalf("quarantined counter = %d, want 1", q)
	}

	// Siblings and listings still work; the quarantined trial is now a
	// plain not-found for new readers.
	if _, err := repo2.GetTrial("app", "exp", "good"); err != nil {
		t.Fatalf("sibling trial broken by quarantine: %v", err)
	}
	if trials := repo2.Trials("app", "exp"); len(trials) != 1 || trials[0] != "good" {
		t.Fatalf("Trials = %v, want [good]", trials)
	}
	if _, err := repo2.GetTrial("app", "exp", "bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("re-read of quarantined trial = %v, want ErrNotFound", err)
	}

	// The quarantine is visible to fsck.
	rep, err := repo2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Trials != 1 {
		t.Fatalf("Verify = %+v, want 1 quarantined / 1 healthy", rep)
	}
	if rep.Clean() {
		t.Fatal("report with quarantined entries must not be Clean")
	}
}

// Verify itself must quarantine damaged files it scans, without needing a
// lookup to trip over them first.
func TestVerifyQuarantinesProactively(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("app", "exp", "t1", 1)); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, filepath.FromSlash(onlyKey(t, trialFiles(t, dir, ".json"))))
	if err := os.WriteFile(p, []byte("%PDMF1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	repo2, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repo2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Trials != 0 || len(rep.Errors) != 0 {
		t.Fatalf("Verify = %+v, want exactly one quarantined entry", rep)
	}
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Fatalf("Verify did not quarantine: %v", err)
	}
}

// plantDamaged writes bytes no encoder writes at the path of app/exp/t1.
func plantDamaged(t *testing.T, dir string) string {
	t.Helper()
	p := filepath.Join(dir, "app", "exp", "t1.json")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("%PDMF1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// A read that judged a file damaged quarantines it only if the file still
// holds what it read: a Save acknowledged between the read and the
// quarantine wrote the trial at that path, and must stay readable. Each of
// the three readers reads the damaged file, is held there while the Save
// runs, and then judges what it read.
func TestQuarantineSparesSaveAfterRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(repo *Repository) error
	}{
		{"GetTrial", func(repo *Repository) error {
			if _, err := repo.GetTrial("app", "exp", "t1"); !errors.Is(err, ErrCorrupt) {
				return fmt.Errorf("GetTrial = %v, want ErrCorrupt for the bytes it read", err)
			}
			return nil
		}},
		{"GetEncoded", func(repo *Repository) error {
			if _, err := repo.GetEncoded(context.Background(), "app", "exp", "t1"); !errors.Is(err, ErrCorrupt) {
				return fmt.Errorf("GetEncoded = %v, want ErrCorrupt for the bytes it read", err)
			}
			return nil
		}},
		{"Verify", func(repo *Repository) error {
			rep, err := repo.Verify()
			if err != nil || len(rep.Quarantined) != 0 || len(rep.Errors) != 0 || rep.Trials != 0 {
				return fmt.Errorf("Verify = %+v, %v; want the file that changed since its read neither moved nor listed", rep, err)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p := plantDamaged(t, dir)
			fsys := &blockingFS{FS: vfs.OS{}, read: make(chan struct{}), release: make(chan struct{})}
			repo, err := OpenRepositoryFS(dir, fsys)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- tc.read(repo) }()
			<-fsys.read
			if err := repo.Save(miniTrial("app", "exp", "t1", 5)); err != nil {
				t.Fatal(err)
			}
			close(fsys.release)
			if err := <-done; err != nil {
				t.Error(err)
			}
			got, err := repo.GetTrial("app", "exp", "t1")
			if err != nil || got.Events[0].Inclusive[TimeMetric][0] != 5 {
				t.Fatalf("acknowledged Save lost to the quarantine: GetTrial = %v", err)
			}
			if _, err := os.Stat(p + ".corrupt"); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("the saved trial was moved aside: stat .corrupt = %v", err)
			}
			if q, _, _ := repo.StoreStats(); q != 0 {
				t.Errorf("store_quarantined = %d, want 0", q)
			}
		})
	}
}

// fsck reports what it did: damage it could not move aside is a scan error
// naming the file, which stays where it was, and the report is unclean.
func TestVerifyReportsFailedQuarantine(t *testing.T) {
	dir := t.TempDir()
	p := plantDamaged(t, dir)
	fsys := vfs.NewFaulty(vfs.OS{})
	fsys.Inject(vfs.Fault{Op: vfs.OpRename, Path: ".corrupt", Err: syscall.EIO})
	repo, err := OpenRepositoryFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repo.Verify()
	if err != nil || rep.Clean() || len(rep.Quarantined) != 0 || len(rep.Errors) != 1 ||
		!strings.HasPrefix(rep.Errors[0], "app/exp/t1.json: quarantine: ") || !strings.Contains(rep.Errors[0], syscall.EIO.Error()) {
		t.Fatalf("Verify = %+v, %v; want one scan error naming the file and nothing quarantined", rep, err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Errorf("the damaged file left its place: %v", err)
	}
	if q, _, _ := repo.StoreStats(); q != 0 {
		t.Errorf("store_quarantined = %d after a failed rename, want 0", q)
	}
}

// sweepRaceFS starts a Save of app/exp/t1 and holds it between writing its
// temp file and renaming it, when the repository goes to remove that temp
// file with its lock free: the window in which a sweep that does not take
// the lock removes the temp file of a save in flight.
type sweepRaceFS struct {
	vfs.FS
	repo    *Repository
	saved   chan error    // the Save's result, once one was started
	written chan struct{} // receives once the Save has written its temp file
	removed chan struct{} // closed once the temp file's removal has run
}

func (f *sweepRaceFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	err := f.FS.WriteFile(name, data, perm)
	if f.saved != nil && strings.HasSuffix(name, ".tmp") {
		f.written <- struct{}{}
		<-f.removed
	}
	return err
}

func (f *sweepRaceFS) Remove(name string) error {
	if f.saved == nil && strings.HasSuffix(name, ".tmp") && f.repo.mu.TryLock() {
		f.repo.mu.Unlock()
		f.saved = make(chan error, 1)
		go func() { f.saved <- f.repo.Save(miniTrial("app", "exp", "t1", 5)) }()
		<-f.written
		defer close(f.removed)
	}
	return f.FS.Remove(name)
}

// An fsck on a serving repository removes orphaned temp files, never the
// temp file of a save in flight: the save holds the lock from its write to
// its rename, and the sweep removes each temp file under the lock.
func TestOnlineFsckSparesSaveInFlight(t *testing.T) {
	dir := t.TempDir()
	fsys := &sweepRaceFS{FS: vfs.OS{}, written: make(chan struct{}), removed: make(chan struct{})}
	repo, err := OpenRepositoryFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	fsys.repo = repo
	orphan := filepath.Join(dir, "app", "exp", "t1.json.tmp")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := repo.Verify()
	if err != nil || !reflect.DeepEqual(rep.RecoveredTmp, []string{"app/exp/t1.json.tmp"}) {
		t.Fatalf("Verify = %+v, %v; want the orphaned temp file recovered", rep, err)
	}
	if fsys.saved != nil {
		if err := <-fsys.saved; err != nil {
			t.Fatalf("a Save in flight during the sweep failed: %v", err)
		}
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("orphaned temp file still present: %v", err)
	}
}

// --- collision-free escaping -------------------------------------------

// Names that collided under the old underscore scheme ("a/b" vs "a_b" vs
// "a b") must now map to distinct files, with every trial surviving.
func TestSafeEscapingCollisionFree(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a/b", "a_b", "a b", "a:b", "a\\b", "a%b", ".", ".."}
	for i, name := range names {
		if err := repo.Save(miniTrial("app", "exp", name, float64(i))); err != nil {
			t.Fatalf("save %q: %v", name, err)
		}
	}
	if got := len(trialFiles(t, dir, ".json")); got != len(names) {
		t.Fatalf("%d names produced %d files — collisions remain", len(names), got)
	}
	repo2, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		got, err := repo2.GetTrial("app", "exp", name)
		if err != nil {
			t.Fatalf("GetTrial(%q): %v", name, err)
		}
		if v := got.Events[0].Inclusive[TimeMetric][0]; v != float64(i) {
			t.Fatalf("trial %q holds value %v, want %d — overwritten by a colliding name", name, v, i)
		}
	}
	if trials := repo2.Trials("app", "exp"); len(trials) != len(names) {
		t.Fatalf("Trials lists %d names, want %d", len(trials), len(names))
	}
}

var hostileNames = []string{"a", "a.", ".a", "..", ".", "a/b", "a\\b", "a b", "a_b",
	"a%b", "a%2Fb", "%", "", "a:b", "con", "a\nb", "a\x00b", "ü"}

// safe is injective over a hostile alphabet and never emits a path
// separator or leading dot.
func TestSafeInjective(t *testing.T) {
	seen := map[string]string{}
	for _, n := range hostileNames {
		s := safe(n)
		if prev, dup := seen[s]; dup {
			t.Fatalf("safe(%q) == safe(%q) == %q", n, prev, s)
		}
		seen[s] = n
		if strings.ContainsAny(s, "/\\") || strings.HasPrefix(s, ".") || s == "" {
			t.Fatalf("safe(%q) = %q is not a safe path component", n, s)
		}
	}
}

// checkNameOf states the bijection for one string: as a name it survives
// safe then nameOf, and as a path component nameOf accepts it only if safe
// of the result gives it back.
func checkNameOf(t *testing.T, s string) {
	t.Helper()
	if got, ok := nameOf(safe(s)); !ok || got != s {
		t.Fatalf("nameOf(safe(%q)) = %q, %v", s, got, ok)
	}
	if name, ok := nameOf(s); ok && safe(name) != s {
		t.Fatalf("nameOf(%q) = %q, whose path component is %q", s, name, safe(name))
	}
}

// nameOf inverts safe on every string and rejects what safe cannot emit.
func TestNameOfInvertsSafe(t *testing.T) {
	for _, n := range hostileNames {
		checkNameOf(t, n)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			checkNameOf(t, string([]byte{byte(a), byte(b)}))
		}
	}
	if err := quick.Check(func(s string) bool { checkNameOf(t, s); return true }, nil); err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"a b", "a%zz", "%2e", "a%2Eb", ".", ".a", "", "a%", "a%2", "%41", "a/b"} {
		if name, ok := nameOf(comp); ok {
			t.Errorf("nameOf(%q) = %q, want rejection: safe never emits it", comp, name)
		}
	}
}

// --- fault-driven error paths ------------------------------------------

// Regression for the cache/disk divergence bug: a failed persist must not
// leave the new trial visible in the cache, and the previous version must
// survive on disk.
func TestSaveFailureDoesNotPoisonCache(t *testing.T) {
	dir := t.TempDir()
	f := vfs.NewFaulty(vfs.OS{})
	repo, err := OpenRepositoryFS(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("app", "exp", "t1", 1)); err != nil {
		t.Fatal(err)
	}
	f.Inject(vfs.Fault{Op: vfs.OpWriteFile, Err: syscall.ENOSPC, Count: 1})
	if err := repo.Save(miniTrial("app", "exp", "t1", 2)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("save under ENOSPC = %v, want ENOSPC", err)
	}
	// The failed version must not be served — neither from cache now, nor
	// after a restart.
	got, err := repo.GetTrial("app", "exp", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Events[0].Inclusive[TimeMetric][0]; v != 1 {
		t.Fatalf("GetTrial after failed save = %v, want the durable version 1", v)
	}
	repo2, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := repo2.GetTrial("app", "exp", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if v := got2.Events[0].Inclusive[TimeMetric][0]; v != 1 {
		t.Fatalf("reopened trial = %v, want 1", v)
	}
}

// The repository's error paths, driven through the fault-injecting VFS.
func TestRepositoryFaultTable(t *testing.T) {
	cases := []struct {
		name  string
		fault vfs.Fault
		run   func(t *testing.T, repo *Repository, f *vfs.Faulty, dir string)
	}{
		{
			name:  "enospc mid-save leaves no residue",
			fault: vfs.Fault{Op: vfs.OpWriteFile, Path: ".tmp", Err: syscall.ENOSPC, Torn: true, Count: 1},
			run: func(t *testing.T, repo *Repository, f *vfs.Faulty, dir string) {
				err := repo.Save(miniTrial("app", "exp", "new", 9))
				if !errors.Is(err, syscall.ENOSPC) {
					t.Fatalf("err = %v, want ENOSPC", err)
				}
				if n := len(trialFiles(t, dir, ".tmp")); n != 0 {
					t.Fatalf("%d torn .tmp files left behind", n)
				}
				if _, err := repo.GetTrial("app", "exp", "new"); !errors.Is(err, ErrNotFound) {
					t.Fatalf("half-saved trial visible: %v", err)
				}
			},
		},
		{
			name:  "eio on read is an error, not corruption",
			fault: vfs.Fault{Op: vfs.OpReadFile, Path: "seed", Err: syscall.EIO, Count: 1},
			run: func(t *testing.T, repo *Repository, f *vfs.Faulty, dir string) {
				_, err := repo.GetTrial("app", "exp", "seed")
				if !errors.Is(err, syscall.EIO) {
					t.Fatalf("err = %v, want EIO", err)
				}
				if errors.Is(err, ErrCorrupt) {
					t.Fatal("transient EIO misclassified as corruption")
				}
				// The file must not have been quarantined.
				if n := len(trialFiles(t, dir, ".corrupt")); n != 0 {
					t.Fatal("EIO read quarantined a healthy file")
				}
				// The next read (fault exhausted) succeeds.
				if _, err := repo.GetTrial("app", "exp", "seed"); err != nil {
					t.Fatalf("retry after EIO failed: %v", err)
				}
			},
		},
		{
			name:  "rename failure aborts publish",
			fault: vfs.Fault{Op: vfs.OpRename, Err: syscall.EACCES, Count: 1},
			run: func(t *testing.T, repo *Repository, f *vfs.Faulty, dir string) {
				err := repo.Save(miniTrial("app", "exp", "seed", 9))
				if !errors.Is(err, syscall.EACCES) {
					t.Fatalf("err = %v, want EACCES", err)
				}
				if n := len(trialFiles(t, dir, ".tmp")); n != 0 {
					t.Fatalf("%d .tmp files left after failed rename", n)
				}
				// The previous version survives.
				got, err := repo.GetTrial("app", "exp", "seed")
				if err != nil {
					t.Fatal(err)
				}
				if v := got.Events[0].Inclusive[TimeMetric][0]; v != 1 {
					t.Fatalf("seed trial = %v, want 1", v)
				}
			},
		},
		{
			name:  "fsync failure is counted",
			fault: vfs.Fault{Op: vfs.OpSyncDir, Err: vfs.ErrFsync, Count: 1},
			run: func(t *testing.T, repo *Repository, f *vfs.Faulty, dir string) {
				err := repo.Save(miniTrial("app", "exp", "new", 9))
				if !errors.Is(err, vfs.ErrFsync) {
					t.Fatalf("err = %v, want ErrFsync", err)
				}
				if _, _, fsyncs := repo.StoreStats(); fsyncs != 1 {
					t.Fatalf("fsync error counter = %d, want 1", fsyncs)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			f := vfs.NewFaulty(vfs.OS{})
			repo, err := OpenRepositoryFS(dir, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := repo.Save(miniTrial("app", "exp", "seed", 1)); err != nil {
				t.Fatal(err)
			}
			// Read the error paths cold: drop the cache by reopening.
			repo, err = OpenRepositoryFS(dir, f)
			if err != nil {
				t.Fatal(err)
			}
			f.Inject(tc.fault)
			tc.run(t, repo, f, dir)
		})
	}
}

// Persistent ENOSPC flips the repository into read-only degraded mode;
// Verify probes the volume and clears the mode once writes work again.
func TestReadOnlyDegradedMode(t *testing.T) {
	dir := t.TempDir()
	f := vfs.NewFaulty(vfs.OS{})
	repo, err := OpenRepositoryFS(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("app", "exp", "t1", 1)); err != nil {
		t.Fatal(err)
	}

	f.Inject(vfs.Fault{Op: vfs.OpWriteFile, Err: syscall.ENOSPC})
	for i := 0; i < readOnlyAfterENOSPC; i++ {
		if err := repo.Save(miniTrial("app", "exp", "t2", 2)); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("save %d = %v, want ENOSPC", i, err)
		}
	}
	if !repo.ReadOnly() {
		t.Fatal("repository not read-only after persistent ENOSPC")
	}
	// Saves now fail fast with the sentinel, without touching the disk.
	if err := repo.Save(miniTrial("app", "exp", "t3", 3)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("save in degraded mode = %v, want ErrReadOnly", err)
	}
	// Reads and deletes still work (deletes release space).
	if _, err := repo.GetTrial("app", "exp", "t1"); err != nil {
		t.Fatalf("read in degraded mode: %v", err)
	}
	if err := repo.DeleteContext(context.Background(), "app", "exp", "t1"); err != nil {
		t.Fatalf("delete in degraded mode: %v", err)
	}
	rep, err := repo.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ReadOnly {
		t.Fatal("Verify must report degraded mode while the volume is full")
	}

	// Space comes back: the next Verify probe re-enables writes.
	f.Clear()
	rep, err = repo.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReadOnly || repo.ReadOnly() {
		t.Fatal("degraded mode not cleared after successful probe")
	}
	if err := repo.Save(miniTrial("app", "exp", "t4", 4)); err != nil {
		t.Fatalf("save after recovery: %v", err)
	}
}

// Opening a repository recovers orphaned temp files from interrupted
// saves.
func TestOpenRecoversOrphanedTmpFiles(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("app", "exp", "t1", 1)); err != nil {
		t.Fatal(err)
	}
	// Plant a torn temp file beside the real trial.
	p := filepath.Join(dir, filepath.FromSlash(onlyKey(t, trialFiles(t, dir, ".json"))))
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, []byte("%PDMF1\n{\"trunca"), 0o644); err != nil {
		t.Fatal(err)
	}

	repo2, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphaned .tmp survived the open-time recovery sweep")
	}
	if _, rec, _ := repo2.StoreStats(); rec != 1 {
		t.Fatalf("recovered_tmp counter = %d, want 1", rec)
	}
	if _, err := repo2.GetTrial("app", "exp", "t1"); err != nil {
		t.Fatalf("real trial unaffected by recovery: %v", err)
	}
}

// Concurrent saves, reads, deletes and fsck runs must be race-free,
// including the durability counters (run under -race in CI).
func TestDurabilityConcurrency(t *testing.T) {
	dir := t.TempDir()
	f := vfs.NewFaulty(vfs.OS{})
	// A sprinkling of transient faults exercises the error paths too.
	f.Inject(vfs.Fault{Op: vfs.OpWriteFile, Err: syscall.EIO, Skip: 5, Count: 3})
	repo, err := OpenRepositoryFS(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := []string{"w", "x", "y", "z"}[g]
			for i := 0; i < 20; i++ {
				_ = repo.Save(miniTrial("app", "exp", name, float64(i)))
				_, _ = repo.GetTrial("app", "exp", name)
				if i%7 == 0 {
					_ = repo.DeleteContext(context.Background(), "app", "exp", name)
				}
				if i%9 == 0 {
					_, _ = repo.Verify()
				}
				repo.Trials("app", "exp")
			}
		}(g)
	}
	wg.Wait()
	if _, err := repo.Verify(); err != nil {
		t.Fatal(err)
	}
}
