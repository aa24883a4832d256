package perfdmf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"perfknow/internal/obs"
	"perfknow/internal/vfs"
)

// ErrNotFound is the sentinel wrapped by GetTrial (and by dmfclient when
// the server answers 404) when the requested trial does not exist. Match
// it with errors.Is, never by substring.
var ErrNotFound = errors.New("trial not found")

// ErrReadOnly is the sentinel wrapped by Save when the repository has
// entered read-only degraded mode after persistent out-of-space failures.
// Reads and deletes still work (deletes release space); a successful
// Verify probe re-enables writes.
var ErrReadOnly = errors.New("repository is read-only (out of space)")

// readOnlyAfterENOSPC is how many consecutive ENOSPC save failures flip
// the repository into read-only degraded mode: one torn write on a nearly
// full disk is retryable, a streak means the volume is genuinely full.
const readOnlyAfterENOSPC = 2

// Repository stores trials in the Application → Experiment → Trial
// hierarchy. A repository may be purely in-memory (root == "") or backed by
// a directory tree with one file per trial, root/<app>/<experiment>/<trial>.json
// (the names percent-escaped, the contents EncodeTrial's output whatever the
// extension says); file-backed repositories keep an in-memory cache of
// everything loaded or saved.
//
// A trial is resident in one form, the Columns it was encoded from or
// decoded to: Save pivots the caller's trial once, encodes those columns and
// caches them; SaveEncoded checks, re-encodes and caches the columns it
// decoded and builds no Trial at all; a cold read caches what it decoded.
// Cached columns are immutable — nothing writes to them once they are in
// the map, not even their lazily built lookup tables — so any number of
// readers share them without a lock, and GetTrial materializes a private
// Trial from a copy of their flat blocks. Callers may therefore freely
// mutate the trials they pass in and the trials they get back.
//
// The storage path is built for crash safety and corruption tolerance:
//
//   - Save and SaveEncoded write the trial's one encoded form (EncodeTrial:
//     columnar payload in a checksummed envelope, see envelope.go), first to
//     a temp file that is fsynced, then atomically renamed into place, then
//     the parent directory is fsynced — so after a crash every trial file
//     is bytewise either its old or its new version, never a blend. The
//     in-memory cache is updated only after the bytes are durable, so a
//     failed save never makes GetTrial serve data that would vanish on
//     restart.
//   - Reads validate the envelope. A damaged file (torn, bit-rotted,
//     undecodable, invalid) is quarantined — renamed to <file>.corrupt —
//     and the read fails wrapping ErrCorrupt; sibling trials and listings
//     are unaffected. A file in the previous form (a %PDMFCOL3 payload)
//     remains readable and is rewritten into the encoded form on its next
//     save, or all at once by Verify; a file in a form older than that is
//     refused by name and quarantined like a damaged one.
//   - Opening runs a recovery sweep that deletes orphaned .tmp files left
//     by interrupted saves. Verify runs a full fsck on demand.
//   - Persistent ENOSPC on save flips the repository into read-only
//     degraded mode (ErrReadOnly); Verify probes the volume and clears the
//     mode once space is back.
//
// All filesystem access goes through a vfs.FS, so tests drive the error
// paths and crash points deterministically with vfs.Faulty.
//
// Directory and file names on disk are the trial's coordinates under a
// bijective percent-escaping (safe and its inverse nameOf), so the path is
// the name: a file-backed repository lists by reading directory entries and
// opens no trial file to do so. A file that is not at the path of the
// coordinates it embeds — one written by older versions under their lossy
// underscore scheme — is never served; Verify moves it into place.
//
// Repository is safe for concurrent use.
type Repository struct {
	mu    sync.RWMutex
	root  string
	fsys  vfs.FS
	cache map[string]*Columns // key: app/experiment/trial; values satisfy isPivot and are never written again
	// gen counts Saves and Deletes. A cold read decodes its file outside
	// mu; it caches the result only if gen has not moved since it looked.
	gen uint64

	readOnly     atomic.Bool
	enospcStreak atomic.Int32

	// Durability counters, mirrored into an obs.Registry by Instrument.
	quarantined  storeCounter
	recoveredTmp storeCounter
	fsyncErrors  storeCounter
}

// NewRepository returns an in-memory repository.
func NewRepository() *Repository {
	return &Repository{cache: make(map[string]*Columns)}
}

// OpenRepository returns a repository backed by the directory root on the
// real filesystem, creating it if needed, after running the crash-recovery
// sweep (orphaned temp files from interrupted saves are removed).
func OpenRepository(root string) (*Repository, error) {
	return OpenRepositoryFS(root, vfs.OS{})
}

// OpenRepositoryFS is OpenRepository over an explicit filesystem. Tests
// use it with a vfs.Faulty to drive error paths and crash points; serving
// code should use OpenRepository.
func OpenRepositoryFS(root string, fsys vfs.FS) (*Repository, error) {
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("perfdmf: open repository: %w", err)
	}
	r := &Repository{
		root:  root,
		fsys:  fsys,
		cache: make(map[string]*Columns),
	}
	r.recoverTmp(nil)
	return r, nil
}

func key(app, experiment, trial string) string {
	return app + "\x00" + experiment + "\x00" + trial
}

// safe makes a name usable as a path component, injectively: letters,
// digits, '-', '_' and non-leading '.' pass through, every other byte
// (including '%' itself) becomes %XX. Because '%' never appears bare,
// two distinct names can never map to the same component. Leading dots
// are escaped so no component can be ".", ".." or hidden.
func safe(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_':
			b.WriteByte(c)
		case c == '.' && i > 0:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	if b.Len() == 0 {
		return "%" // empty component marker; a literal "%" escapes to %25
	}
	return b.String()
}

// nameOf inverts safe: it returns the name whose path component is comp,
// and false when comp is not the image of any name (a bare or lower-case
// escape, an escaped byte safe passes through, an unescaped leading dot),
// so a directory entry the repository did not write is never listed.
func nameOf(comp string) (string, bool) {
	if comp == "%" {
		return "", true
	}
	var b strings.Builder
	for i := 0; i < len(comp); i++ {
		c := comp[i]
		if c == '%' {
			if i+2 >= len(comp) {
				return "", false
			}
			v, err := strconv.ParseUint(comp[i+1:i+3], 16, 8)
			if err != nil {
				return "", false
			}
			c = byte(v)
			i += 2
		}
		b.WriteByte(c)
	}
	name := b.String()
	return name, safe(name) == comp
}

func (r *Repository) path(app, experiment, trial string) string {
	return filepath.Join(r.root, safe(app), safe(experiment), safe(trial)+".json")
}

// ReadOnly reports whether the repository is in read-only degraded mode
// (persistent ENOSPC on save). Use Verify to probe the volume and clear
// the mode once space is available again.
func (r *Repository) ReadOnly() bool { return r.readOnly.Load() }

// Save stores the trial (validating first) and persists it when the
// repository is file-backed. The repository keeps the trial's columns, which
// share nothing with t, so mutating t after Save does not affect what later
// GetTrial calls observe.
//
// Persistence is crash-safe (temp file + fsync + atomic rename + directory
// fsync) and the cache is only updated after the bytes are durable: a
// failed save leaves GetTrial serving the previous version, never a trial
// that would vanish on restart.
func (r *Repository) Save(t *Trial) error {
	if err := t.Validate(); err != nil {
		return err
	}
	c, err := ColumnsFromTrial(t)
	if err != nil {
		return err
	}
	var data []byte
	if r.root != "" {
		if data, err = c.encodeEnveloped(); err != nil {
			return err
		}
	}
	return r.store(c, data)
}

// Stored describes a trial SaveEncoded has stored: what an upload is
// answered with, and the bytes a hint for it carries.
type Stored struct {
	App, Experiment, Name    string
	Threads, Events, Metrics int
	// Encoded is the trial's canonical encoding, as written.
	Encoded []byte
}

// SaveEncoded stores a trial that arrives already encoded (EncodeTrial
// output: an upload body, a replayed hint). It runs every check Save runs
// — envelope checksum, full structural decode, the decoder's validity
// checks — and additionally requires data to be the canonical encoding of
// the trial it decodes to, so the file written is byte for byte what Save of
// that trial would write. The one other body accepted is a %PDMFCOL3
// encoding (a hint queued before the upgrade, a client one version behind),
// which passes the same checks and is stored as its re-encoding; trial JSON,
// bare or in the envelope, is not an encoded trial. Rejected input wraps
// ErrCorrupt and leaves the repository untouched. No Trial is built: the
// decoded columns are what is checked, encoded and cached.
func (r *Repository) SaveEncoded(ctx context.Context, data []byte) (st Stored, err error) {
	_, sp := obs.StartSpan(ctx, "perfdmf.save")
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	payload, err := decodeEnvelope(data)
	if err != nil {
		return Stored{}, err
	}
	c, err := DecodeColumnar(payload)
	if err != nil {
		return Stored{}, err
	}
	sp.SetAttr("app", c.App)
	sp.SetAttr("experiment", c.Experiment)
	sp.SetAttr("trial", c.Name)
	// isPivot shows the columns are how the encoder pivots this trial, equal
	// bytes that the body is how it writes those columns.
	var canon []byte
	canonical := c.isPivot()
	if canonical {
		if canon, err = c.encodeEnveloped(); err != nil {
			return Stored{}, err
		}
		canonical = bytes.Equal(canon, data) || isColumnarPrev(payload)
	}
	if !canonical {
		return Stored{}, fmt.Errorf("%w: not the canonical encoding of trial %q/%q/%q", ErrCorrupt, c.App, c.Experiment, c.Name)
	}
	st = Stored{App: c.App, Experiment: c.Experiment, Name: c.Name,
		Threads: c.Threads, Events: len(c.EventNames), Metrics: len(c.Metrics), Encoded: canon}
	if err := r.store(c, canon); err != nil {
		return Stored{}, err
	}
	return st, nil
}

// store persists data, the encoded form of c (unused when in-memory), and
// then caches c, which the caller must not touch again.
func (r *Repository) store(c *Columns, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	k := key(c.App, c.Experiment, c.Name)
	if r.root == "" {
		r.cache[k] = c
		return nil
	}
	if r.readOnly.Load() {
		return fmt.Errorf("perfdmf: save trial %q/%q/%q: %w", c.App, c.Experiment, c.Name, ErrReadOnly)
	}
	if err := r.persist(c.App, c.Experiment, c.Name, data); err != nil {
		// The on-disk state is now uncertain (the rename may or may not
		// have happened before a directory-sync failure), so drop any
		// cached copy: reads fall back to the disk, the source of truth.
		delete(r.cache, k)
		r.noteWriteError(err)
		return err
	}
	r.enospcStreak.Store(0)
	r.cache[k] = c
	return nil
}

// persist writes one trial's encoded bytes durably: fsynced temp file →
// atomic rename → parent directory fsync. Callers hold r.mu.
func (r *Repository) persist(app, experiment, trial string, data []byte) error {
	p := r.path(app, experiment, trial)
	dir := filepath.Dir(p)
	if err := r.fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("perfdmf: save trial: %w", err)
	}
	tmp := p + ".tmp"
	if err := r.fsys.WriteFile(tmp, data, 0o644); err != nil {
		_ = r.fsys.Remove(tmp) // clear the torn temp; recovery sweeps catch the rest
		return fmt.Errorf("perfdmf: write trial: %w", err)
	}
	if err := r.fsys.Rename(tmp, p); err != nil {
		_ = r.fsys.Remove(tmp)
		return fmt.Errorf("perfdmf: publish trial: %w", err)
	}
	if err := r.fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("perfdmf: sync trial dir: %w", err)
	}
	return nil
}

// noteWriteError classifies a persistence failure: fsync failures feed the
// durability counter, and a streak of ENOSPC flips read-only mode.
func (r *Repository) noteWriteError(err error) {
	if errors.Is(err, vfs.ErrFsync) {
		r.fsyncErrors.inc()
	}
	if errors.Is(err, syscall.ENOSPC) {
		if r.enospcStreak.Add(1) >= readOnlyAfterENOSPC {
			r.readOnly.Store(true)
		}
	} else {
		r.enospcStreak.Store(0)
	}
}

// GetTrial loads a trial by its (application, experiment, name) coordinates.
// The returned trial is a private copy, materialized from the cached
// columns: callers may mutate it freely without affecting the repository.
//
// A damaged file — failed checksum, truncated envelope, undecodable
// payload, invalid trial — is quarantined to <file>.corrupt and the error
// wraps ErrCorrupt; other trials and listings are unaffected.
func (r *Repository) GetTrial(app, experiment, trial string) (*Trial, error) {
	k := key(app, experiment, trial)
	r.mu.RLock()
	c, ok := r.cache[k]
	gen := r.gen
	r.mu.RUnlock()
	if ok {
		return c.cloneTrial(), nil
	}
	fail := func(err error) (*Trial, error) {
		return nil, fmt.Errorf("perfdmf: trial %q/%q/%q: %w", app, experiment, trial, err)
	}
	data, p, err := r.readStored(app, experiment, trial)
	if err != nil {
		return fail(err)
	}
	c, err = decodeColumns(data)
	if err != nil {
		r.quarantine(p)
		return fail(err)
	}
	// A valid file at another trial's path (the old underscore scheme put
	// "a b" where "a_b" lives) is not this trial, and not damage either:
	// Verify moves it to its own path.
	if c.App != app || c.Experiment != experiment || c.Name != trial {
		return fail(ErrNotFound)
	}
	// The file was read outside the lock: a save or delete since then may
	// have replaced what it held, and must not be undone in the cache.
	r.mu.Lock()
	if _, ok := r.cache[k]; !ok && r.gen == gen {
		r.cache[k] = c
	}
	r.mu.Unlock()
	return c.cloneTrial(), nil
}

// GetEncoded returns a trial in its encoded form (EncodeTrial output), for
// callers that ship it on rather than analyse it. A file-backed repository
// answers with the stored file's bytes after verifying the envelope
// checksum and reading the coordinates at the head of the payload header —
// nothing else is decoded; a file in the previous form is decoded and
// re-encoded on the fly (it is upgraded on disk by its next save or by
// Verify). A failed check quarantines the file exactly as GetTrial does. An
// in-memory repository encodes from its cache.
func (r *Repository) GetEncoded(ctx context.Context, app, experiment, trial string) ([]byte, error) {
	_, sp := obs.StartSpan(ctx, "perfdmf.get_trial",
		"app", app, "experiment", experiment, "trial", trial)
	data, err := r.getEncoded(app, experiment, trial)
	sp.SetError(err)
	sp.End()
	return data, err
}

func (r *Repository) getEncoded(app, experiment, trial string) ([]byte, error) {
	fail := func(err error) ([]byte, error) {
		return nil, fmt.Errorf("perfdmf: trial %q/%q/%q: %w", app, experiment, trial, err)
	}
	if r.root == "" {
		r.mu.RLock()
		c, ok := r.cache[key(app, experiment, trial)]
		r.mu.RUnlock()
		if !ok {
			return fail(ErrNotFound)
		}
		return c.encodeEnveloped()
	}
	data, p, err := r.readStored(app, experiment, trial)
	if err != nil {
		return fail(err)
	}
	payload, err := decodeEnvelope(data)
	if err != nil {
		r.quarantine(p)
		return fail(err)
	}
	hApp, hExp, hName, ok := decodeTrialHeaderPayload(payload)
	if !ok {
		r.quarantine(p)
		// Not a payload this release reads, or a damaged one: the decoder
		// says which.
		if _, err = DecodeColumnar(payload); err == nil {
			err = corruptf("unreadable trial header")
		}
		return fail(err)
	}
	if hApp != app || hExp != experiment || hName != trial {
		return fail(ErrNotFound) // see GetTrial
	}
	if IsColumnar(payload) {
		return data, nil
	}
	c, err := decodeColumnsPayload(payload)
	if err != nil {
		r.quarantine(p)
		return fail(err)
	}
	return c.encodeEnveloped()
}

// readStored reads the file at the path of a trial's coordinates.
func (r *Repository) readStored(app, experiment, trial string) (data []byte, p string, err error) {
	if r.root == "" {
		return nil, "", ErrNotFound
	}
	p = r.path(app, experiment, trial)
	data, err = r.fsys.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		err = ErrNotFound
	}
	return data, p, err
}

// quarantine moves a damaged trial file aside to <path>.corrupt so the
// next listing or fsck sees it flagged instead of tripping over it again.
// Best-effort: a failing rename leaves the file in place, and the read
// that triggered the quarantine still fails with ErrCorrupt.
func (r *Repository) quarantine(path string) {
	if err := r.fsys.Rename(path, path+".corrupt"); err == nil {
		r.quarantined.inc()
	}
}

// DeleteContext removes a trial from the cache and, when file-backed, from
// disk, under a `perfdmf.delete` span. Emptied experiment and application
// directories are pruned. It works in read-only degraded mode: it releases
// space.
func (r *Repository) DeleteContext(ctx context.Context, app, experiment, trial string) (err error) {
	_, sp := obs.StartSpan(ctx, "perfdmf.delete",
		"app", app, "experiment", experiment, "trial", trial)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	delete(r.cache, key(app, experiment, trial))
	if r.root == "" {
		return nil
	}
	p := r.path(app, experiment, trial)
	expDir := filepath.Dir(p)
	if err := r.fsys.Remove(p); err == nil {
		if err := r.fsys.SyncDir(expDir); err != nil {
			r.fsyncErrors.inc()
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	// Prune now-empty parents; Remove fails harmlessly when a directory
	// still has entries.
	appDir := filepath.Dir(expDir)
	if expDir != r.root {
		_ = r.fsys.Remove(expDir)
	}
	if appDir != r.root && appDir != expDir {
		_ = r.fsys.Remove(appDir)
	}
	return nil
}

// Applications lists application names known to the repository, sorted.
// On disk an application or experiment exists only while it holds a trial
// file: the directories a failed first save leaves behind are not listed.
func (r *Repository) Applications() []string {
	if r.root == "" {
		return r.cachedNames(func(app, _, _ string) (string, bool) { return app, true })
	}
	out := []string{}
	for _, app := range r.diskNames(r.root, true) {
		if len(r.Experiments(app)) > 0 {
			out = append(out, app)
		}
	}
	return out
}

// Experiments lists experiment names for an application, sorted.
func (r *Repository) Experiments(app string) []string {
	if r.root == "" {
		return r.cachedNames(func(a, exp, _ string) (string, bool) { return exp, a == app })
	}
	out := []string{}
	for _, exp := range r.diskNames(filepath.Join(r.root, safe(app)), true) {
		if len(r.Trials(app, exp)) > 0 {
			out = append(out, exp)
		}
	}
	return out
}

// Trials lists trial names for an (application, experiment) pair, sorted.
// File-backed, that is one ReadDir of the experiment's directory.
func (r *Repository) Trials(app, experiment string) []string {
	if r.root == "" {
		return r.cachedNames(func(a, exp, name string) (string, bool) { return name, a == app && exp == experiment })
	}
	return r.diskNames(filepath.Join(r.root, safe(app), safe(experiment)), false)
}

// ListApplications implements Store. A repository listing cannot fail, so
// it is Applications with a nil error.
func (r *Repository) ListApplications() ([]string, error) { return r.Applications(), nil }

// ListExperiments implements Store; see ListApplications.
func (r *Repository) ListExperiments(app string) ([]string, error) { return r.Experiments(app), nil }

// ListTrials implements Store; see ListApplications.
func (r *Repository) ListTrials(app, experiment string) ([]string, error) {
	return r.Trials(app, experiment), nil
}

// Size reports the number of applications, experiments and trials in the
// repository.
func (r *Repository) Size() (apps, experiments, trials int) {
	if r.root == "" {
		apps = len(r.Applications())
		experiments = len(r.cachedNames(func(app, exp, _ string) (string, bool) { return key(app, exp, ""), true }))
		r.mu.RLock()
		defer r.mu.RUnlock()
		return apps, experiments, len(r.cache)
	}
	for _, app := range r.diskNames(r.root, true) {
		held := 0
		for _, exp := range r.diskNames(filepath.Join(r.root, safe(app)), true) {
			if n := len(r.Trials(app, exp)); n > 0 {
				held++
				trials += n
			}
		}
		if held > 0 {
			apps++
			experiments += held
		}
	}
	return apps, experiments, trials
}

// cachedNames is the listing of an in-memory repository: the distinct
// names pick selects from the cached trials' coordinates, sorted.
func (r *Repository) cachedNames(pick func(app, experiment, trial string) (string, bool)) []string {
	set := make(map[string]bool)
	r.mu.RLock()
	for k := range r.cache {
		parts := strings.SplitN(k, "\x00", 3)
		if name, ok := pick(parts[0], parts[1], parts[2]); ok {
			set[name] = true
		}
	}
	r.mu.RUnlock()
	return sortedKeys(set)
}

// diskNames is the listing of one directory of a file-backed repository:
// the names of its sub-directories (dirs) or of its trial files, sorted.
// In-flight (.tmp) and quarantined (.corrupt) files do not end in .json,
// and an entry that is not the image of a name under safe is skipped, so
// a listed name always leads back to the entry it came from.
func (r *Repository) diskNames(dir string, dirs bool) []string {
	out := []string{} // a listing is a JSON array even when empty
	entries, err := r.fsys.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range entries {
		comp := e.Name()
		if !dirs {
			var ok bool
			if comp, ok = strings.CutSuffix(comp, ".json"); !ok {
				continue
			}
		}
		if name, ok := nameOf(comp); ok && e.IsDir() == dirs {
			out = append(out, name)
		}
	}
	sort.Strings(out) // escaping does not preserve order: "a~" > "az" but "a%7E" < "az"
	return out
}

// walkTrialDirs invokes fn for every experiment directory (the level
// holding trial files), passing its sorted entries.
func (r *Repository) walkTrialDirs(fn func(dir string, files []os.DirEntry)) {
	appDirs, err := r.fsys.ReadDir(r.root)
	if err != nil {
		return
	}
	for _, ad := range appDirs {
		if !ad.IsDir() {
			continue
		}
		expDirs, err := r.fsys.ReadDir(filepath.Join(r.root, ad.Name()))
		if err != nil {
			continue
		}
		for _, ed := range expDirs {
			if !ed.IsDir() {
				continue
			}
			dir := filepath.Join(r.root, ad.Name(), ed.Name())
			files, err := r.fsys.ReadDir(dir)
			if err != nil {
				continue
			}
			fn(dir, files)
		}
	}
}

// ReadTrialFile loads a single trial from a native snapshot (the file
// format Save writes, or the previous one), without needing a repository.
func ReadTrialFile(path string) (*Trial, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perfdmf: read trial: %w", err)
	}
	t, err := DecodeTrial(data)
	if err != nil {
		return nil, fmt.Errorf("perfdmf: decode trial %s: %w", path, err)
	}
	return t, nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
