package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"perfknow/internal/dmfwire"
	"perfknow/internal/vfs"
)

// HintStore keeps hinted-handoff records durably on disk: one file per
// (owner, trial coordinate), written with the same write-aside → fsync →
// rename → SyncDir discipline as trial files, so a crash between accepting
// a hinted write and replaying it loses nothing. A later hint for the same
// coordinate replaces the earlier one (the newest body wins, exactly like
// a repeated upload). The store must live OUTSIDE the trial repository
// directory — the repository walks every subdirectory as profile data.
type HintStore struct {
	fs  vfs.FS
	dir string

	mu sync.Mutex
	// pending caches the record count so the cluster_hints_pending gauge
	// never touches the disk.
	pending int
}

const (
	hintExt = ".hint"
	hintTmp = ".tmp"
)

// OpenHintStore opens (creating if needed) a hint directory. Leftover
// temp files from a crashed write are removed; undecodable records are
// counted and reported but left in place for inspection — they will fail
// replay loudly rather than vanish silently.
func OpenHintStore(fsys vfs.FS, dir string) (*HintStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: hint store: %w", err)
	}
	h := &HintStore{fs: fsys, dir: dir}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: hint store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, hintTmp):
			// A write-aside that never renamed: the hint was never
			// acknowledged, so discarding it is correct.
			_ = fsys.Remove(h.path(name))
		case strings.HasSuffix(name, hintExt):
			h.pending++
		}
	}
	return h, nil
}

// Dir returns the store's directory.
func (h *HintStore) Dir() string { return h.dir }

func (h *HintStore) path(name string) string { return h.dir + "/" + name }

// fileName keys a record by (owner, coordinate): replays and replacements
// address the same file.
func fileName(hint dmfwire.Hint) string {
	f := fnv.New64a()
	for _, s := range []string{hint.Owner, hint.App, hint.Experiment, hint.Trial} {
		_, _ = f.Write([]byte(s))
		_, _ = f.Write([]byte{0})
	}
	return fmt.Sprintf("%016x%s", f.Sum64(), hintExt)
}

// Put durably stores a hint, replacing any existing record for the same
// (owner, coordinate).
func (h *HintStore) Put(hint dmfwire.Hint) error {
	data, err := dmfwire.EncodeHint(hint)
	if err != nil {
		return err
	}
	name := fileName(hint)
	h.mu.Lock()
	defer h.mu.Unlock()
	_, statErr := h.fs.Stat(h.path(name))
	existed := statErr == nil
	tmp := h.path(name + hintTmp)
	if err := h.fs.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("cluster: hint store: %w", err)
	}
	if err := h.fs.Rename(tmp, h.path(name)); err != nil {
		_ = h.fs.Remove(tmp)
		return fmt.Errorf("cluster: hint store: %w", err)
	}
	if err := h.fs.SyncDir(h.dir); err != nil {
		return fmt.Errorf("cluster: hint store: %w", err)
	}
	if !existed {
		h.pending++
	}
	return nil
}

// Pending returns the number of records waiting for replay (the
// cluster_hints_pending gauge).
func (h *HintStore) Pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pending
}

// All decodes every record, sorted by owner then coordinate so replay
// order is deterministic. Undecodable records are skipped and returned as
// errors; they stay on disk.
func (h *HintStore) All() ([]dmfwire.Hint, []error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	entries, err := h.fs.ReadDir(h.dir)
	if err != nil {
		return nil, []error{fmt.Errorf("cluster: hint store: %w", err)}
	}
	var hints []dmfwire.Hint
	var errs []error
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), hintExt) {
			continue
		}
		data, err := h.fs.ReadFile(h.path(e.Name()))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // raced with Remove
			}
			errs = append(errs, fmt.Errorf("cluster: hint %s: %w", e.Name(), err))
			continue
		}
		hint, err := dmfwire.DecodeHint(data)
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: hint %s: %w", e.Name(), err))
			continue
		}
		hints = append(hints, hint)
	}
	sort.Slice(hints, func(i, j int) bool {
		a, b := hints[i], hints[j]
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		return a.Trial < b.Trial
	})
	return hints, errs
}

// Remove deletes the record for a delivered hint, and only that record: a
// Put for the same (owner, coordinate) since the hint was read replaced it
// with a body not yet delivered, which stays.
func (h *HintStore) Remove(hint dmfwire.Hint) error {
	want, err := dmfwire.EncodeHint(hint)
	if err != nil {
		return err
	}
	p := h.path(fileName(hint))
	h.mu.Lock()
	defer h.mu.Unlock()
	data, err := h.fs.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) || err == nil && !bytes.Equal(data, want) {
		return nil // already gone, or replaced by a hint not yet delivered
	}
	if err == nil {
		err = h.fs.Remove(p)
	}
	if err == nil {
		err = h.fs.SyncDir(h.dir)
	}
	if err != nil {
		return fmt.Errorf("cluster: hint store: %w", err)
	}
	h.pending--
	return nil
}
