package perfdmf

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfknow/internal/vfs"
)

// The crash-simulation harness: for EVERY filesystem-operation crash
// point during a Save/Delete workload, kill the VFS mid-stream, reopen
// the repository over the real filesystem (the restart), and assert the
// storage invariant:
//
//   - every trial file is bytewise either its full old version or its
//     full new version — never a torn blend;
//   - no .tmp residue survives the reopen (the recovery sweep removed
//     interrupted saves);
//   - the repository opens cleanly and Verify reports zero errors and
//     zero quarantined entries;
//   - every listed trial is readable.
//
// This is the storage analogue of the network chaos suite: instead of
// proving the client survives a lossy transport, it proves the store
// survives a dying machine.

// crashSeed populates dir with the pre-workload state: trials A and B.
func crashSeed(t *testing.T, dir string) {
	t.Helper()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("crash app", "exp 1", "tr A", 1)); err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("crash app", "exp 1", "tr B", 2)); err != nil {
		t.Fatal(err)
	}
}

// crashWorkload mutates the seeded repository: overwrite A, delete B,
// create C — A through Save, C through SaveEncoded, so both entrances to
// the one persist path are swept. Errors are ignored — under a crash
// schedule most operations fail, and the point is what the disk looks like
// afterwards.
func crashWorkload(repo *Repository) {
	_ = repo.Save(miniTrial("crash app", "exp 1", "tr A", 10))
	_ = repo.DeleteContext(context.Background(), "crash app", "exp 1", "tr B")
	if data, err := EncodeTrial(miniTrial("crash app", "exp 1", "tr C", 30)); err == nil {
		_, _ = repo.SaveEncoded(context.Background(), data)
	}
}

func TestCrashPointSweep(t *testing.T) {
	// Learn the workload's deterministic op count and capture the old
	// (pre-workload) and new (post-workload) on-disk states, bytewise.
	oldDir := t.TempDir()
	crashSeed(t, oldDir)
	oldState := trialFiles(t, oldDir, "")

	newDir := t.TempDir()
	crashSeed(t, newDir)
	counter := vfs.NewFaulty(vfs.OS{})
	repo, err := OpenRepositoryFS(newDir, counter)
	if err != nil {
		t.Fatal(err)
	}
	crashWorkload(repo)
	totalOps := counter.Ops()
	newState := trialFiles(t, newDir, "")
	if totalOps < 10 {
		t.Fatalf("workload performed only %d filesystem ops — the sweep would prove nothing", totalOps)
	}

	// The union of paths a crash may leave behind, each mapped to its
	// permitted versions (old bytes, new bytes, or absent where a state
	// does not contain the file).
	paths := map[string]bool{}
	for p := range oldState {
		paths[p] = true
	}
	for p := range newState {
		paths[p] = true
	}

	for k := 0; k < totalOps; k++ {
		k := k
		t.Run(fmt.Sprintf("crash_at_op_%02d", k), func(t *testing.T) {
			dir := t.TempDir()
			crashSeed(t, dir)
			f := vfs.NewFaulty(vfs.OS{})
			f.CrashAt(k)
			// The crash may hit during open (the recovery sweep) or during
			// the workload; both must leave a recoverable disk.
			if repo, err := OpenRepositoryFS(dir, f); err == nil {
				crashWorkload(repo)
			}
			if !f.Crashed() {
				t.Fatalf("crash point %d never reached", k)
			}

			// Restart: reopen over the real filesystem.
			re, err := OpenRepository(dir)
			if err != nil {
				t.Fatalf("repository did not reopen after crash: %v", err)
			}
			rep, err := re.Verify()
			if err != nil {
				t.Fatalf("fsck after crash: %v", err)
			}
			if len(rep.Errors) != 0 || len(rep.Quarantined) != 0 {
				t.Fatalf("fsck after crash found damage: %+v", rep)
			}

			// Invariant: no temp residue, and every surviving file is
			// bytewise its old or its new version.
			got := trialFiles(t, dir, "")
			for p := range got {
				if strings.HasSuffix(p, ".tmp") {
					t.Fatalf("temp residue %s survived reopen", p)
				}
				if !paths[p] {
					t.Fatalf("unexpected file %s after crash", p)
				}
			}
			for p := range paths {
				cur, exists := got[p]
				oldB, oldOk := oldState[p]
				newB, newOk := newState[p]
				matchesOld := exists == oldOk && (!exists || bytes.Equal(cur, oldB))
				matchesNew := exists == newOk && (!exists || bytes.Equal(cur, newB))
				if !matchesOld && !matchesNew {
					t.Fatalf("file %s is neither its old nor its new version after crash at op %d", p, k)
				}
			}

			// Every trial the reopened repository lists must be readable.
			for _, app := range re.Applications() {
				for _, exp := range re.Experiments(app) {
					for _, name := range re.Trials(app, exp) {
						if _, err := re.GetTrial(app, exp, name); err != nil {
							t.Fatalf("listed trial %q/%q/%q unreadable after crash: %v", app, exp, name, err)
						}
					}
				}
			}
		})
	}
}

// A crash schedule with targeted torn writes on the final file path can
// never happen through the repository (only .tmp files are written), but
// a hostile or buggy writer could still torn-write a published file.
// fsck must then quarantine it and keep the rest of the store serving —
// the sweep above proves crashes are safe, this proves sabotage is
// contained.
func TestCrashTornPublishedFileIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("app", "exp", "whole", 1)); err != nil {
		t.Fatal(err)
	}
	if err := repo.Save(miniTrial("app", "exp", "torn", 2)); err != nil {
		t.Fatal(err)
	}
	files := trialFiles(t, dir, ".json")
	for rel, data := range files {
		if !strings.Contains(rel, "torn") {
			continue
		}
		full := dir + "/" + rel
		if err := (vfs.OS{}).WriteFile(full, data[:vfs.TornLen(len(data))], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := re.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Trials != 1 {
		t.Fatalf("fsck = %+v, want the torn file quarantined and the whole one kept", rep)
	}
	if _, err := re.GetTrial("app", "exp", "whole"); err != nil {
		t.Fatalf("healthy trial unreadable beside torn one: %v", err)
	}
}

// The same sweep over the format migration: a repository holding the one
// checked-in %PDMFCOL3 file, crashed at every filesystem operation of open +
// Verify. After the restart the file is bytewise the old bytes or
// EncodeTrial's, nothing else exists, fsck is clean — and, having run, has
// finished the upgrade.
func TestCrashPointSweepFsckUpgrade(t *testing.T) {
	oldBytes, err := os.ReadFile(filepath.Join("testdata", "col3_sparse.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeTrial(oldBytes)
	if err != nil {
		t.Fatal(err)
	}
	newBytes, err := EncodeTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	const rel = "app/exp/sparse.json"
	seed := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "app", "exp"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), oldBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	counter := vfs.NewFaulty(vfs.OS{})
	repo, err := OpenRepositoryFS(seed(t), counter)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := repo.Verify(); err != nil || rep.Legacy != 1 || rep.Upgraded != 1 || !rep.Clean() {
		t.Fatalf("uncrashed fsck = %+v, %v; want 1 legacy, 1 upgraded, clean", rep, err)
	}
	totalOps := counter.Ops()
	if totalOps < 8 {
		t.Fatalf("open + fsck performed only %d filesystem ops — the sweep would prove nothing", totalOps)
	}

	sawOld, sawNew := false, false
	for k := 0; k < totalOps; k++ {
		k := k
		t.Run(fmt.Sprintf("crash_at_op_%02d", k), func(t *testing.T) {
			dir := seed(t)
			f := vfs.NewFaulty(vfs.OS{})
			f.CrashAt(k)
			if repo, err := OpenRepositoryFS(dir, f); err == nil {
				_, _ = repo.Verify()
			}
			if !f.Crashed() {
				t.Fatalf("crash point %d never reached", k)
			}
			// What the dying machine left, before any recovery runs.
			left := trialFiles(t, dir, ".json")
			if cur := left[rel]; len(left) != 1 || !(bytes.Equal(cur, oldBytes) || bytes.Equal(cur, newBytes)) {
				t.Fatalf("crash at op %d left %d .json files; %s is its old or new version: false", k, len(left), rel)
			}
			sawOld = sawOld || bytes.Equal(left[rel], oldBytes)
			sawNew = sawNew || bytes.Equal(left[rel], newBytes)

			re, err := OpenRepository(dir)
			if err != nil {
				t.Fatalf("repository did not reopen after crash: %v", err)
			}
			rep, err := re.Verify()
			if err != nil || !rep.Clean() || rep.Trials != 1 {
				t.Fatalf("fsck after crash = %+v, %v", rep, err)
			}
			got := trialFiles(t, dir, "")
			if cur := got[rel]; len(got) != 1 || !bytes.Equal(cur, newBytes) {
				t.Fatalf("after restart + fsck: %d files, %s upgraded: %v", len(got), rel, bytes.Equal(cur, newBytes))
			}
			if again, err := re.Verify(); err != nil || again.Legacy != 0 || again.Upgraded != 0 || !again.Clean() {
				t.Fatalf("second fsck = %+v, %v; want nothing legacy", again, err)
			}
			if back, err := re.GetTrial(tr.App, tr.Experiment, tr.Name); err != nil || canonicalTrialDump(back) != canonicalTrialDump(tr.Clone()) {
				t.Fatalf("trial unreadable or changed after the upgrade: %v", err)
			}
		})
	}
	if !sawOld || !sawNew {
		t.Errorf("sweep saw old bytes: %v, new bytes: %v — want both sides of the rename", sawOld, sawNew)
	}
}
