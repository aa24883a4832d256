package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perfknow/internal/dmfwire"
	"perfknow/internal/vfs"
)

func testHint(owner, trial string, body string) dmfwire.Hint {
	return dmfwire.Hint{
		Owner:      owner,
		App:        "sweep3d",
		Experiment: "weak scaling",
		Trial:      trial,
		Body:       []byte(body),
	}
}

func TestHintStorePutAllRemove(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hints")
	h, err := OpenHintStore(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	a := testHint("http://node-a:7360", "np64", `{"app":"sweep3d"}`)
	b := testHint("http://node-b:7360", "np128", `{"app":"sweep3d"}`)
	for _, hint := range []dmfwire.Hint{b, a} {
		if err := h.Put(hint); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}

	// Replacing the same coordinate keeps one record with the newest body.
	a2 := a
	a2.Body = []byte(`{"app":"sweep3d","threads":64}`)
	if err := h.Put(a2); err != nil {
		t.Fatal(err)
	}
	if got := h.Pending(); got != 2 {
		t.Fatalf("pending after replace = %d, want 2", got)
	}

	hints, errs := h.All()
	if len(errs) != 0 {
		t.Fatalf("All errors: %v", errs)
	}
	if !reflect.DeepEqual(hints, []dmfwire.Hint{a2, b}) {
		t.Fatalf("All = %+v, want sorted [a2 b]", hints)
	}

	if err := h.Remove(a2); err != nil {
		t.Fatal(err)
	}
	if got := h.Pending(); got != 1 {
		t.Fatalf("pending after remove = %d, want 1", got)
	}
	// Removing a record that is already gone is a no-op, not a miscount.
	if err := h.Remove(a2); err != nil {
		t.Fatal(err)
	}
	if got := h.Pending(); got != 1 {
		t.Fatalf("pending after double remove = %d, want 1", got)
	}
}

// A replay removes only the record it delivered: a Put for the same owner
// and coordinate between the replay's All and its Remove holds a body not
// yet delivered, and stays for the next replay.
func TestHintStoreRemoveKeepsNewerHint(t *testing.T) {
	h, err := OpenHintStore(vfs.OS{}, filepath.Join(t.TempDir(), "hints"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put(testHint("http://node-a:7360", "np64", `{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	read, errs := h.All()
	if len(errs) != 0 || len(read) != 1 {
		t.Fatalf("All = %v, %v; want the one hint", read, errs)
	}
	newer := testHint("http://node-a:7360", "np64", `{"v":2}`)
	if err := h.Put(newer); err != nil {
		t.Fatal(err)
	}
	if err := h.Remove(read[0]); err != nil {
		t.Fatal(err)
	}
	if got, errs := h.All(); len(errs) != 0 || !reflect.DeepEqual(got, []dmfwire.Hint{newer}) || h.Pending() != 1 {
		t.Fatalf("after removing the delivered hint: All = %+v, %v, pending %d; want the newer hint kept", got, errs, h.Pending())
	}
	if err := h.Remove(newer); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.All(); len(got) != 0 || h.Pending() != 0 {
		t.Fatalf("after delivering the newer hint: All = %+v, pending %d; want none", got, h.Pending())
	}
}

func TestHintStoreSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hints")
	h, err := OpenHintStore(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testHint("http://node-a:7360", "np64", `{"app":"sweep3d"}`)
	if err := h.Put(want); err != nil {
		t.Fatal(err)
	}

	// A crashed write-aside must be swept on reopen, not replayed.
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.hint.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenHintStore(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := h2.Pending(); got != 1 {
		t.Fatalf("pending after reopen = %d, want 1", got)
	}
	hints, errs := h2.All()
	if len(errs) != 0 || len(hints) != 1 {
		t.Fatalf("All after reopen = %+v / %v", hints, errs)
	}
	if !reflect.DeepEqual(hints[0], want) {
		t.Fatalf("round-tripped hint = %+v, want %+v", hints[0], want)
	}
	if _, err := os.Stat(filepath.Join(dir, "deadbeef.hint.tmp")); !os.IsNotExist(err) {
		t.Fatal("leftover temp file survived reopen")
	}
}

func TestHintStoreKeepsCorruptRecordsVisible(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hints")
	h, err := OpenHintStore(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put(testHint("http://node-a:7360", "np64", "x")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "0000000000000bad.hint"), []byte("%DMFHINT1 garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenHintStore(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	hints, errs := h2.All()
	if len(hints) != 1 {
		t.Fatalf("decodable hints = %d, want 1", len(hints))
	}
	if len(errs) != 1 {
		t.Fatalf("corrupt record did not surface as an error: %v", errs)
	}
	// The corrupt file stays on disk for inspection.
	if _, err := os.Stat(filepath.Join(dir, "0000000000000bad.hint")); err != nil {
		t.Fatalf("corrupt record was deleted: %v", err)
	}
}
