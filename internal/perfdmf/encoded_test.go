package perfdmf

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"perfknow/internal/vfs"
)

// The encoded form is one codec pair plus a raw get/save on Repository.
// These tests pin what the raw paths must share with Save and GetTrial:
// the checksum is verified on raw read and on raw save, nothing is
// persisted or cached before a full decode and Validate, a damaged file is
// quarantined, and what SaveEncoded writes is byte for byte what Save
// writes.

// EncodeTrial → DecodeTrial is lossless down to float bits, and the
// encoding is canonical: the decoded trial encodes to the same bytes.
func TestEncodeDecodeTrialRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		tr := genColTrial(r, "t"+strconv.Itoa(i), 1+r.Intn(5))
		data, err := EncodeTrial(tr)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", i, err)
		}
		if !IsEncodedTrial(data) {
			t.Fatalf("trial %d: IsEncodedTrial = false on EncodeTrial output", i)
		}
		got, err := DecodeTrial(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", i, err)
		}
		if canonicalTrialDump(got) != canonicalTrialDump(tr) {
			t.Fatalf("trial %d: round trip changed the trial", i)
		}
		again, err := EncodeTrial(got)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("trial %d: re-encoding the decoded trial gave different bytes (err=%v)", i, err)
		}
	}
	if IsEncodedTrial([]byte(`{"name":"x"}`)) {
		t.Error("IsEncodedTrial = true on trial JSON")
	}
}

// DecodeTrial still reads both legacy forms.
func TestDecodeTrialLegacyForms(t *testing.T) {
	tr := cellsTrial("legacy", 3, 2)
	plain, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"plain JSON": plain, "JSON in envelope": encodeEnvelope(plain)} {
		got, err := DecodeTrial(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if canonicalTrialDump(got) != canonicalTrialDump(tr) {
			t.Errorf("%s: decoded differently", name)
		}
	}
	// An invalid trial inside an intact envelope is corrupt, not accepted.
	bad := encodeEnvelope([]byte(`{"application":"a","experiment":"e","name":"n","threads":0}`))
	if _, err := DecodeTrial(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("invalid trial: want ErrCorrupt, got %v", err)
	}
}

// hostileEncodings returns inputs SaveEncoded must refuse, derived from the
// valid encoding of a one-event trial. Each keeps as much of the envelope
// intact as its fault allows, so the check under test is the one that has
// to catch it.
func hostileEncodings(t *testing.T) map[string][]byte {
	t.Helper()
	valid := encodeEnvelope(craftColumnar(minimalHeader, minimalBody(0x01, 0x01)))
	if _, err := DecodeTrial(valid); err != nil {
		t.Fatalf("baseline encoding must decode: %v", err)
	}
	payload, _, _ := decodeEnvelope(valid)
	inflated := strings.Replace(minimalHeader, `"threads":1`, `"threads":1000000000`, 1)
	spaced := strings.Replace(minimalHeader, `"threads":1`, `"threads": 1`, 1)
	reordered := `{"experiment":"e","application":"a",` + strings.TrimPrefix(minimalHeader, `{"application":"a","experiment":"e",`)
	return map[string][]byte{
		"empty":                       nil,
		"truncated envelope":          valid[:len(valid)-9],
		"flipped payload bit":         flipByte(valid, len(envelopeMagic)+len(columnarMagic)+30),
		"flipped CRC digit":           flipByte(valid, len(valid)-12),
		"dimension-inflated header":   encodeEnvelope(craftColumnar(inflated, minimalBody(0x01, 0x01))),
		"trailing bytes in payload":   encodeEnvelope(append(append([]byte(nil), payload...), 0)),
		"trailing bytes after":        append(append([]byte(nil), valid...), '\n'),
		"non-canonical header spaces": encodeEnvelope(craftColumnar(spaced, minimalBody(0x01, 0x01))),
		"non-canonical header order":  encodeEnvelope(craftColumnar(reordered, minimalBody(0x01, 0x01))),
		"legacy plain JSON":           []byte(`{"application":"a","experiment":"e","name":"n","threads":1,"metrics":null,"events":[]}`),
		"legacy JSON in envelope":     encodeEnvelope([]byte(`{"application":"a","experiment":"e","name":"n","threads":1,"metrics":null,"events":[]}`)),
	}
}

func TestSaveEncodedRejectsHostileInput(t *testing.T) {
	for name, data := range hostileEncodings(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			repo, err := OpenRepository(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := repo.SaveEncoded(context.Background(), data)
			if !errors.Is(err, ErrCorrupt) || got != nil {
				t.Fatalf("SaveEncoded = %v, %v; want nil trial and ErrCorrupt", got, err)
			}
			if files := trialFiles(t, dir, ""); len(files) != 0 {
				t.Errorf("rejected input left files behind: %v", files)
			}
			if _, err := repo.GetTrial("a", "e", "n"); !errors.Is(err, ErrNotFound) {
				t.Errorf("rejected input became readable: %v", err)
			}
			if q, _, _ := repo.StoreStats(); q != 0 {
				t.Errorf("rejected input quarantined %d files", q)
			}
			mem := NewRepository()
			if _, err := mem.SaveEncoded(context.Background(), data); !errors.Is(err, ErrCorrupt) {
				t.Errorf("in-memory SaveEncoded: want ErrCorrupt, got %v", err)
			}
		})
	}
}

// SaveEncoded writes the bytes it was given, and those are the bytes Save
// writes for the same trial; the returned trial is the caller's own.
func TestSaveEncodedMatchesSave(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	viaSave, err := OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	viaEncoded, err := OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tr := genColTrial(r, "t"+strconv.Itoa(i), 1+r.Intn(4))
		if err := viaSave.Save(tr); err != nil {
			t.Fatal(err)
		}
		data, err := EncodeTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := viaEncoded.SaveEncoded(context.Background(), data)
		if err != nil {
			t.Fatalf("trial %d: SaveEncoded: %v", i, err)
		}
		if canonicalTrialDump(got) != canonicalTrialDump(tr) {
			t.Fatalf("trial %d: SaveEncoded returned a different trial", i)
		}
		a := rawTrialFile(t, viaSave, tr.App, tr.Experiment, tr.Name)
		b := rawTrialFile(t, viaEncoded, tr.App, tr.Experiment, tr.Name)
		if !bytes.Equal(a, b) || !bytes.Equal(b, data) {
			t.Fatalf("trial %d: Save, SaveEncoded and EncodeTrial disagree on the stored bytes", i)
		}
		// Mutating the returned trial must not reach the cache.
		if len(got.Events) > 0 {
			got.Events[0].Calls[0] = -12345
			cached, err := viaEncoded.GetTrial(tr.App, tr.Experiment, tr.Name)
			if err != nil || cached.Events[0].Calls[0] == -12345 {
				t.Fatalf("trial %d: returned trial aliases the cache (err=%v)", i, err)
			}
		}
	}
}

// The failure handling of Save applies to SaveEncoded: a failed write
// leaves no cached copy, and read-only mode refuses the save.
func TestSaveEncodedFailureModes(t *testing.T) {
	data, err := EncodeTrial(miniTrial("app", "exp", "t1", 1))
	if err != nil {
		t.Fatal(err)
	}
	f := vfs.NewFaulty(vfs.OS{})
	repo, err := OpenRepositoryFS(t.TempDir(), f)
	if err != nil {
		t.Fatal(err)
	}
	f.Inject(vfs.Fault{Op: vfs.OpWriteFile, Err: syscall.ENOSPC})
	for i := 0; i < readOnlyAfterENOSPC; i++ {
		if _, err := repo.SaveEncoded(context.Background(), data); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("save %d on a full volume: want ENOSPC, got %v", i, err)
		}
	}
	if _, err := repo.GetTrial("app", "exp", "t1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed SaveEncoded left a readable trial: %v", err)
	}
	if !repo.ReadOnly() {
		t.Fatal("ENOSPC streak did not flip read-only mode")
	}
	if _, err := repo.SaveEncoded(context.Background(), data); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("SaveEncoded in read-only mode: want ErrReadOnly, got %v", err)
	}
}

// GetEncoded hands back the stored file as it is, verifies its checksum,
// and quarantines a damaged file exactly as GetTrial does.
func TestGetEncoded(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := cellsTrial("t1", 5, 3)
	if err := repo.Save(tr); err != nil {
		t.Fatal(err)
	}
	file := rawTrialFile(t, repo, "app", "exp", "t1")
	for name, r := range map[string]*Repository{"warm": repo, "fresh": mustOpen(t, dir)} {
		got, err := r.GetEncoded(ctx, "app", "exp", "t1")
		if err != nil || !bytes.Equal(got, file) {
			t.Fatalf("%s GetEncoded: err=%v, bytes equal the file: %v", name, err, bytes.Equal(got, file))
		}
	}
	if _, err := repo.GetEncoded(ctx, "app", "exp", "absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("absent trial: want ErrNotFound, got %v", err)
	}

	mem := NewRepository()
	if err := mem.Save(tr); err != nil {
		t.Fatal(err)
	}
	// Clone materializes zero columns for registered metrics, which tr
	// already has everywhere, so the in-memory encoding equals the file.
	if got, err := mem.GetEncoded(ctx, "app", "exp", "t1"); err != nil || !bytes.Equal(got, file) {
		t.Errorf("in-memory GetEncoded: err=%v, equal=%v", err, bytes.Equal(got, file))
	}
	if _, err := mem.GetEncoded(ctx, "app", "exp", "absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("in-memory absent trial: want ErrNotFound, got %v", err)
	}

	// Bit rot: the raw read must notice, fail with ErrCorrupt and move the
	// file aside, leaving its sibling readable.
	if err := repo.Save(cellsTrial("sibling", 2, 2)); err != nil {
		t.Fatal(err)
	}
	p := repo.path("app", "exp", "t1")
	if err := os.WriteFile(p, flipByte(file, len(file)/2), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := mustOpen(t, dir)
	if _, err := fresh.GetEncoded(ctx, "app", "exp", "t1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetEncoded over a damaged file: want ErrCorrupt, got %v", err)
	}
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Errorf("damaged file not quarantined: %v", err)
	}
	if q, _, _ := fresh.StoreStats(); q != 1 {
		t.Errorf("store_quarantined = %d, want 1", q)
	}
	if _, err := fresh.GetEncoded(ctx, "app", "exp", "sibling"); err != nil {
		t.Errorf("sibling unreadable beside the quarantined file: %v", err)
	}
}

func mustOpen(t *testing.T, dir string) *Repository {
	t.Helper()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// A directory written by older versions — a plain-JSON file, a
// JSON-in-envelope file, one of them under the underscore path scheme —
// serves both representations, and each file is upgraded by its next save.
func TestLegacyFilesServeEncodedAndUpgrade(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	plant := func(p string, data []byte) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plain := miniTrial("my app", "exp", "plain", 1)
	wrapped := miniTrial("my app", "exp", "wrapped", 2)
	plainJSON, _ := json.MarshalIndent(plain, "", " ")
	wrappedJSON, _ := json.MarshalIndent(wrapped, "", " ")
	plant(filepath.Join(dir, "my_app", "exp", "plain.json"), plainJSON) // underscore scheme
	plant(filepath.Join(dir, safe("my app"), "exp", "wrapped.json"), encodeEnvelope(wrappedJSON))

	repo := mustOpen(t, dir)
	if rep, err := repo.Verify(); err != nil || rep.Trials != 2 || rep.Legacy != 2 || !rep.Clean() {
		t.Fatalf("fsck over legacy files = %+v, %v; want 2 trials, 2 legacy, clean", rep, err)
	}
	for _, want := range []*Trial{plain, wrapped} {
		data, err := repo.GetEncoded(ctx, want.App, want.Experiment, want.Name)
		if err != nil {
			t.Fatalf("%s: GetEncoded: %v", want.Name, err)
		}
		canon, _ := EncodeTrial(want)
		if !bytes.Equal(data, canon) {
			t.Errorf("%s: legacy file not re-encoded to the canonical form", want.Name)
		}
		got, err := repo.GetTrial(want.App, want.Experiment, want.Name)
		if err != nil || canonicalTrialDump(got) != canonicalTrialDump(want) {
			t.Errorf("%s: GetTrial: err=%v", want.Name, err)
		}
		// Reading does not rewrite; the next save does, in either flavour.
		if want == plain {
			err = repo.Save(got)
		} else {
			_, err = repo.SaveEncoded(ctx, data)
		}
		if err != nil {
			t.Fatalf("%s: save: %v", want.Name, err)
		}
		if file := rawTrialFile(t, repo, want.App, want.Experiment, want.Name); !bytes.Equal(file, canon) {
			t.Errorf("%s: file not upgraded to the encoded form by its save", want.Name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "my_app", "exp", "plain.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("underscore-scheme twin survived the upgrade: %v", err)
	}
	if rep, err := repo.Verify(); err != nil || rep.Trials != 2 || rep.Legacy != 0 {
		t.Fatalf("fsck after upgrade = %+v, %v; want 2 trials, 0 legacy", rep, err)
	}
	// The legacy path of "a b" is the current path of "a_b": a raw read
	// must not serve one trial under the other's name.
	if err := repo.Save(miniTrial("my app", "exp", "a_b", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := mustOpen(t, dir).GetEncoded(ctx, "my app", "exp", "a b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetEncoded(a b) with only a_b stored: want ErrNotFound, got %v", err)
	}
}

// The trade-off DESIGN.md records: blocks are dense, so an absent (event,
// metric) pair still costs 16 × threads bytes and a very sparse trial
// stores larger than its JSON. The test pins the arithmetic, not a policy.
func TestDenseBlocksCostOnSparseTrials(t *testing.T) {
	const events, threads = 64, 16
	tr := NewTrial("app", "exp", "sparse", threads)
	for i := 0; i < events; i++ {
		// Every event carries one metric of its own and nothing else.
		e := tr.EnsureEvent("f" + strconv.Itoa(i))
		vals := make([]float64, threads)
		e.Inclusive["M"+strconv.Itoa(i)] = vals
		e.Exclusive["M"+strconv.Itoa(i)] = vals
	}
	enc, err := EncodeTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, _ := decodeEnvelope(enc)
	hlen := int(binary.LittleEndian.Uint32(payload[len(columnarMagic):]))
	blocks := len(payload) - len(columnarMagic) - 4 - hlen
	if want := 8*events*threads + events*(2*((events+7)/8)+16*events*threads); blocks != want {
		t.Errorf("block bytes = %d, want %d (calls + per column: 2 bitmaps + 2 dense blocks)", blocks, want)
	}
	if js, _ := json.Marshal(tr); len(enc) <= len(js) {
		t.Errorf("sparse trial: encoded %d B ≤ JSON %d B — the documented trade-off no longer exists", len(enc), len(js))
	}
}
