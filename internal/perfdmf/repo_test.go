package perfdmf

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"perfknow/internal/vfs"
)

// spacedTrial builds a minimal trial whose coordinates all contain
// characters that safe() rewrites on disk.
func spacedTrial() *Trial {
	tr := NewTrial("my app", "exp one", "trial 1", 2)
	tr.AddMetric(TimeMetric)
	e := tr.EnsureEvent("main")
	for th := 0; th < 2; th++ {
		e.Calls[th] = 1
		e.SetValue(TimeMetric, th, 100, 100)
	}
	return tr
}

// A file-backed repository reopened over names containing spaces and
// slashes must list the original names exactly once, and GetTrial on a
// listed name must succeed.
func TestFileBackedListingsKeepOriginalNames(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := spacedTrial()
	if err := repo.Save(tr); err != nil {
		t.Fatal(err)
	}

	// Listing through the repository that wrote the trial: the disk holds
	// "my%20app", which must be presented as the original name.
	if apps := repo.Applications(); len(apps) != 1 || apps[0] != "my app" {
		t.Fatalf("Applications = %v, want [my app]", apps)
	}
	if exps := repo.Experiments("my app"); len(exps) != 1 || exps[0] != "exp one" {
		t.Fatalf("Experiments = %v, want [exp one]", exps)
	}
	if trials := repo.Trials("my app", "exp one"); len(trials) != 1 || trials[0] != "trial 1" {
		t.Fatalf("Trials = %v, want [trial 1]", trials)
	}

	// A fresh repository over the same directory sees only the disk; it
	// must still report the original names (decoded from the escaped
	// directory entries) and resolve them.
	repo2, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if apps := repo2.Applications(); len(apps) != 1 || apps[0] != "my app" {
		t.Fatalf("reopened Applications = %v, want [my app]", apps)
	}
	if exps := repo2.Experiments("my app"); len(exps) != 1 || exps[0] != "exp one" {
		t.Fatalf("reopened Experiments = %v, want [exp one]", exps)
	}
	trials := repo2.Trials("my app", "exp one")
	if len(trials) != 1 || trials[0] != "trial 1" {
		t.Fatalf("reopened Trials = %v, want [trial 1]", trials)
	}
	got, err := repo2.GetTrial("my app", "exp one", trials[0])
	if err != nil {
		t.Fatalf("GetTrial on listed name: %v", err)
	}
	if got.App != "my app" || got.Name != "trial 1" {
		t.Fatalf("loaded trial has wrong coordinates: %q/%q", got.App, got.Name)
	}
}

// Deleting the last trial of an experiment must prune the emptied
// directories so they stop appearing in listings.
func TestDeletePrunesEmptyDirectories(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := spacedTrial()
	if err := repo.Save(tr); err != nil {
		t.Fatal(err)
	}
	if err := repo.DeleteContext(context.Background(), "my app", "exp one", "trial 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, safe("my app"))); !os.IsNotExist(err) {
		t.Fatalf("application directory not pruned: %v", err)
	}
	if apps := repo.Applications(); len(apps) != 0 {
		t.Fatalf("deleted application still listed: %v", apps)
	}
	// A reopened repository must agree.
	repo2, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if apps := repo2.Applications(); len(apps) != 0 {
		t.Fatalf("deleted application still listed after reopen: %v", apps)
	}
}

// Deleting one of two trials keeps the shared directories.
func TestDeleteKeepsNonEmptyDirectories(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := spacedTrial()
	b := spacedTrial()
	b.Name = "trial 2"
	for _, tr := range []*Trial{a, b} {
		if err := repo.Save(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.DeleteContext(context.Background(), "my app", "exp one", "trial 1"); err != nil {
		t.Fatal(err)
	}
	if trials := repo.Trials("my app", "exp one"); len(trials) != 1 || trials[0] != "trial 2" {
		t.Fatalf("Trials = %v, want [trial 2]", trials)
	}
	if _, err := repo.GetTrial("my app", "exp one", "trial 2"); err != nil {
		t.Fatalf("surviving trial unreadable: %v", err)
	}
}

// Save keeps a private copy: mutating the trial after Save must not change
// what the repository serves.
func TestSaveIsCopyOnWrite(t *testing.T) {
	repo := NewRepository()
	tr := spacedTrial()
	if err := repo.Save(tr); err != nil {
		t.Fatal(err)
	}
	tr.Events[0].Inclusive[TimeMetric][0] = -42
	got, err := repo.GetTrial("my app", "exp one", "trial 1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Events[0].Inclusive[TimeMetric][0] == -42 {
		t.Fatal("mutation after Save leaked into the repository")
	}
}

func TestRepositorySize(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := spacedTrial()
	b := spacedTrial()
	b.Experiment = "exp two"
	c := spacedTrial()
	c.App = "other"
	for _, tr := range []*Trial{a, b, c} {
		if err := repo.Save(tr); err != nil {
			t.Fatal(err)
		}
	}
	apps, exps, trials := repo.Size()
	if apps != 2 || exps != 3 || trials != 3 {
		t.Fatalf("Size = %d/%d/%d, want 2/3/3", apps, exps, trials)
	}
}

// TestGetTrialNotFoundSentinel: a missing trial wraps ErrNotFound for both
// in-memory and file-backed repositories, so callers (and the perfdmfd
// server's HTTP status mapping) can use errors.Is instead of matching text.
func TestGetTrialNotFoundSentinel(t *testing.T) {
	mem := NewRepository()
	if _, err := mem.GetTrial("a", "e", "t"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("in-memory miss does not wrap ErrNotFound: %v", err)
	}

	disk, err := OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disk.GetTrial("a", "e", "t"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("file-backed miss does not wrap ErrNotFound: %v", err)
	}
}

// Listing one experiment costs one ReadDir of its directory, however large
// the rest of the repository is, and opens no trial file.
func TestTrialsListingReadsOneDirectory(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 20; e++ {
		for n := 0; n < 10; n++ {
			if err := repo.Save(miniTrial("my app", fmt.Sprintf("exp %d", e), fmt.Sprintf("trial %d", n), 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	counting := vfs.NewFaulty(vfs.OS{}) // no fault armed: it only counts
	cold, err := OpenRepositoryFS(dir, counting)
	if err != nil {
		t.Fatal(err)
	}
	before := counting.Ops() // discount the open-time recovery sweep
	if trials := cold.Trials("my app", "exp 7"); len(trials) != 10 || trials[0] != "trial 0" {
		t.Fatalf("Trials = %v, want trial 0..9", trials)
	}
	if ops := counting.Ops() - before; ops != 1 {
		t.Fatalf("Trials cost %d filesystem operations, want 1: the ReadDir, and no ReadFile or Stat", ops)
	}
}

// A first save into a new experiment that fails for lack of space leaves
// its freshly made directories behind, but nothing to list.
func TestFailedFirstSaveListsNothing(t *testing.T) {
	f := vfs.NewFaulty(vfs.OS{})
	repo, err := OpenRepositoryFS(t.TempDir(), f)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("app", "exp", "t1", 1)); err != nil {
		t.Fatal(err)
	}
	f.Inject(vfs.Fault{Op: vfs.OpWriteFile, Err: syscall.ENOSPC})
	for _, tr := range []*Trial{miniTrial("app", "exp new", "t1", 1), miniTrial("app new", "exp", "t1", 1)} {
		if err := repo.Save(tr); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("Save = %v, want ENOSPC", err)
		}
	}
	if apps := repo.Applications(); len(apps) != 1 || apps[0] != "app" {
		t.Fatalf("Applications = %v, want [app]", apps)
	}
	if exps := repo.Experiments("app"); len(exps) != 1 || exps[0] != "exp" {
		t.Fatalf("Experiments = %v, want [exp]", exps)
	}
	if apps, exps, trials := repo.Size(); apps != 1 || exps != 1 || trials != 1 {
		t.Fatalf("Size = %d/%d/%d, want 1/1/1", apps, exps, trials)
	}
}
