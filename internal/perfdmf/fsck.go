package perfdmf

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"perfknow/internal/obs"
)

// FsckReport is the result of Repository.Verify: a full consistency scan
// of the on-disk store. It is the body of GET /api/v1/fsck and the output
// of `perfdmfd -fsck`. Paths are relative to the repository root.
type FsckReport struct {
	// Root is the repository directory that was scanned ("" = in-memory).
	Root string `json:"root"`
	// Trials counts readable, valid trial files (encoded or legacy).
	Trials int `json:"trials"`
	// Legacy counts trials the walk found in the previous form, a %PDMFCOL3
	// payload. (A file in a form older than that is not readable: it is
	// quarantined.)
	Legacy int `json:"legacy"`
	// Upgraded counts the legacy-form files this scan rewrote into the
	// encoded form; after a scan that upgraded them all, the next reports
	// no legacy files.
	Upgraded int `json:"upgraded"`
	// Quarantined lists the .corrupt files present after the scan —
	// both previously quarantined entries and files this scan moved aside.
	Quarantined []string `json:"quarantined,omitempty"`
	// RecoveredTmp lists orphaned .tmp files from interrupted saves that
	// this scan removed.
	RecoveredTmp []string `json:"recovered_tmp,omitempty"`
	// Relocated lists valid trial files this scan moved to the path of the
	// coordinates they embed — files written under the old underscore path
	// scheme, or copied in by hand under the wrong name.
	Relocated []FsckMove `json:"relocated,omitempty"`
	// Errors lists I/O failures encountered while scanning (unreadable
	// files that were NOT identified as corrupt, e.g. EIO) and refused
	// relocations (the destination already holds a file). Corruption is
	// not an error here: it is handled by quarantine.
	Errors []string `json:"errors,omitempty"`
	// ReadOnly reports whether the repository is (still) in read-only
	// degraded mode after the scan's write probe.
	ReadOnly bool `json:"read_only"`
}

// FsckMove is one relocation: both paths relative to the repository root.
type FsckMove struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// Clean reports whether the scan found nothing wrong: no quarantined
// entries, no scan errors, and the store is writable.
func (rep *FsckReport) Clean() bool {
	return len(rep.Quarantined) == 0 && len(rep.Errors) == 0 && !rep.ReadOnly
}

// Verify runs fsck over the repository: removes orphaned .tmp files,
// validates every trial file (quarantining damaged ones to <file>.corrupt),
// moves valid files that sit at another name's path to their own, reports
// quarantined entries, when the repository is in read-only degraded mode
// probes the volume and clears the mode if writes succeed again, and —
// unless it stays read-only — rewrites every legacy-form file into the
// encoded form, which makes it the one-shot format migration. It never
// fails the whole scan because of one bad file.
func (r *Repository) Verify() (*FsckReport, error) {
	rep := &FsckReport{Root: r.root}
	if r.root == "" {
		r.mu.RLock()
		rep.Trials = len(r.cache)
		r.mu.RUnlock()
		return rep, nil
	}
	r.recoverTmp(rep)
	var misplaced, legacy []string
	r.walkTrialDirs(func(dir string, files []os.DirEntry) {
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			p := filepath.Join(dir, f.Name())
			switch {
			case strings.HasSuffix(f.Name(), ".corrupt"):
				rep.Quarantined = append(rep.Quarantined, r.rel(p))
			case strings.HasSuffix(f.Name(), ".json"):
				home, isLegacy := r.verifyTrialFile(p, rep)
				if home != "" && home != p {
					misplaced = append(misplaced, p)
				}
				if isLegacy {
					legacy = append(legacy, home)
				}
			}
		}
	})
	// After the walk, so a file moved into a directory not yet visited is
	// not verified and counted twice.
	for _, p := range misplaced {
		r.relocate(p, rep)
	}
	r.probeWritable()
	for _, p := range legacy {
		r.upgrade(p, rep)
	}
	rep.ReadOnly = r.ReadOnly()
	return rep, nil
}

// verifyTrialFile checks one .json file end to end; damaged files are
// quarantined and recorded, unreadable ones recorded as scan errors. For a
// valid trial it returns home, the path of the coordinates the file embeds
// (the file is misplaced when that is not p), and whether the file is in a
// legacy form.
func (r *Repository) verifyTrialFile(p string, rep *FsckReport) (home string, legacy bool) {
	data, err := r.fsys.ReadFile(p)
	if err != nil {
		rep.Errors = append(rep.Errors, r.rel(p)+": "+err.Error())
		return "", false
	}
	var c *Columns
	payload, err := decodeEnvelope(data)
	if err == nil {
		c, err = decodeColumnsPayload(payload)
	}
	if err != nil {
		r.quarantine(p)
		rep.Quarantined = append(rep.Quarantined, r.rel(p)+".corrupt")
		return "", false
	}
	rep.Trials++
	if legacy = !IsColumnar(payload); legacy {
		rep.Legacy++
	}
	return r.path(c.App, c.Experiment, c.Name), legacy
}

// upgrade rewrites the legacy-form trial file at p, its own path, as
// EncodeTrial output through persist. Like relocate it holds the write lock
// and re-reads the file under it, so a Save racing the scan is not
// overwritten with the older trial. A file that is gone, already upgraded,
// or still misplaced because its relocation was refused is left alone.
func (r *Repository) upgrade(p string, rep *FsckReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.readOnly.Load() {
		return
	}
	data, err := r.fsys.ReadFile(p)
	if err != nil {
		return
	}
	payload, err := decodeEnvelope(data)
	if err != nil || IsColumnar(payload) {
		return
	}
	c, err := decodeColumnsPayload(payload)
	if err != nil || r.path(c.App, c.Experiment, c.Name) != p {
		return
	}
	enc, err := c.encodeEnveloped()
	if err == nil {
		if err = r.persist(c.App, c.Experiment, c.Name, enc); err != nil {
			r.noteWriteError(err)
		}
	}
	if err != nil {
		rep.Errors = append(rep.Errors, r.rel(p)+": upgrade: "+err.Error())
		return
	}
	r.enospcStreak.Store(0)
	rep.Upgraded++
}

// relocate moves the valid trial file at from to the path of the
// coordinates it embeds, never over an existing file. It holds the write
// lock and re-reads the file under it, so a Save racing the scan is
// neither overwritten at the destination nor carried off from the source.
func (r *Repository) relocate(from string, rep *FsckReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	to, err := r.moveHome(from)
	switch {
	case err != nil:
		rep.Errors = append(rep.Errors, r.rel(from)+": relocate: "+err.Error())
	case to != from:
		rep.Relocated = append(rep.Relocated, FsckMove{From: r.rel(from), To: r.rel(to)})
	}
}

func (r *Repository) moveHome(from string) (to string, err error) {
	data, err := r.fsys.ReadFile(from)
	if err != nil {
		return "", err
	}
	c, err := decodeColumns(data)
	if err != nil {
		return "", err
	}
	if to = r.path(c.App, c.Experiment, c.Name); to == from {
		return to, nil
	}
	if _, err := r.fsys.Stat(to); err == nil {
		return "", fmt.Errorf("%s already exists", r.rel(to))
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	if err := r.fsys.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		return "", err
	}
	if err := r.fsys.Rename(from, to); err != nil {
		return "", err
	}
	// Make the move durable, then prune the directories it emptied
	// (Remove fails harmlessly on one that still has entries).
	for _, dir := range []string{filepath.Dir(to), filepath.Dir(from)} {
		if err := r.fsys.SyncDir(dir); err != nil {
			r.fsyncErrors.inc()
		}
	}
	_ = r.fsys.Remove(filepath.Dir(from))
	_ = r.fsys.Remove(filepath.Dir(filepath.Dir(from)))
	return to, nil
}

// recoverTmp removes orphaned .tmp files left by interrupted saves. It
// runs at open (rep == nil: only the counter records the recovery) and as
// part of Verify (removed paths are reported).
func (r *Repository) recoverTmp(rep *FsckReport) {
	r.walkTrialDirs(func(dir string, files []os.DirEntry) {
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".tmp") {
				continue
			}
			p := filepath.Join(dir, f.Name())
			if err := r.fsys.Remove(p); err != nil {
				continue
			}
			r.recoveredTmp.inc()
			if rep != nil {
				rep.RecoveredTmp = append(rep.RecoveredTmp, r.rel(p))
			}
		}
	})
}

// probeWritable checks whether a repository in read-only degraded mode can
// write again (space was freed), and clears the mode if so.
func (r *Repository) probeWritable() {
	if !r.readOnly.Load() {
		return
	}
	probe := filepath.Join(r.root, ".fsck-probe.tmp")
	if err := r.fsys.WriteFile(probe, []byte("probe"), 0o644); err != nil {
		return
	}
	_ = r.fsys.Remove(probe)
	r.enospcStreak.Store(0)
	r.readOnly.Store(false)
}

func (r *Repository) rel(p string) string {
	if rel, err := filepath.Rel(r.root, p); err == nil {
		return filepath.ToSlash(rel)
	}
	return p
}

// --- durability counters ------------------------------------------------

// storeCounter is an internal monotonic counter that can be mirrored into
// an obs.Registry handle once Instrument attaches one; increments before
// attachment are carried over.
type storeCounter struct {
	n atomic.Int64
	h atomic.Pointer[obs.Counter]
}

func (c *storeCounter) inc() {
	c.n.Add(1)
	c.h.Load().Add(1)
}

// Value returns the count so far.
func (c *storeCounter) Value() int64 { return c.n.Load() }

func (c *storeCounter) attach(h *obs.Counter) {
	h.Add(c.n.Load())
	c.h.Store(h)
}

// Instrument mirrors the repository's durability health into reg:
// counters store_quarantined (files moved to .corrupt), store_recovered_tmp
// (orphaned temp files removed by recovery sweeps) and store_fsync_errors
// (failed flushes to stable storage), plus the gauge store_readonly (1
// while in read-only degraded mode). Events recorded before Instrument —
// notably the open-time recovery sweep — are carried into the counters.
func (r *Repository) Instrument(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	r.quarantined.attach(reg.Counter("store_quarantined"))
	r.recoveredTmp.attach(reg.Counter("store_recovered_tmp"))
	r.fsyncErrors.attach(reg.Counter("store_fsync_errors"))
	reg.GaugeFunc("store_readonly", func() float64 {
		if r.ReadOnly() {
			return 1
		}
		return 0
	})
}

// StoreStats reports the repository's durability counters: how many files
// were quarantined, how many orphaned temp files recovery removed, and how
// many fsync failures were observed.
func (r *Repository) StoreStats() (quarantined, recoveredTmp, fsyncErrors int64) {
	return r.quarantined.Value(), r.recoveredTmp.Value(), r.fsyncErrors.Value()
}
