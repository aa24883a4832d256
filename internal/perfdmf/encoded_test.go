package perfdmf

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// encodeEnvelope wraps any payload — a legacy form, a handcrafted or damaged
// one — in the checksummed trial envelope, as EncodeTrial does its own.
func encodeEnvelope(payload []byte) []byte {
	buf := append([]byte(envelopeMagic), payload...)
	return appendEnvelopeTrailer(buf, payload)
}

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

// DecodeTrial reads the one legacy form, %PDMFCOL3, and refuses trial JSON,
// bare or in the envelope, by name.
func TestDecodeTrialLegacyForms(t *testing.T) {
	tr := cellsTrial("legacy", 3, 2)
	got, err := DecodeTrial(encodeEnvelope(prevColumnarPayload(t, tr)))
	if err != nil {
		t.Fatalf("%%PDMFCOL3 in envelope: %v", err)
	}
	if canonicalTrialDump(got) != canonicalTrialDump(tr) {
		t.Error("%PDMFCOL3 in envelope: decoded differently")
	}
	plain, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"plain JSON":       plain,
		"JSON in envelope": encodeEnvelope(plain),
	} {
		if _, err := DecodeTrial(data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "perfdmfd -fsck") {
			t.Errorf("%s: DecodeTrial = %v; want ErrCorrupt naming perfdmfd -fsck of the previous release", name, err)
		}
	}
}

// The checked-in %PDMFCOL1 file — the `valid` seed of the fuzz corpus as a
// raw file — is three versions back and no longer read.
func TestCheckedInColumnarV1File(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "col1_trial.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := decodeEnvelope(data)
	if err != nil || !bytes.HasPrefix(payload, []byte(retiredMagic)) {
		t.Fatalf("testdata/col1_trial.pdmf is not a %%PDMFCOL1 envelope (err=%v)", err)
	}
	checkRetiredFile(t, "col1_trial.pdmf", data, "app", "exp", "seed")
}

// checkRetiredFile holds a file in a form this release no longer reads, of
// trial app/exp/name, to its refusal: every entry point answers ErrCorrupt
// and says which release still rewrites it, a stored file is quarantined
// rather than served or destroyed, and fsck reports it.
func checkRetiredFile(t *testing.T, what string, data []byte, app, exp, name string) {
	t.Helper()
	ctx := context.Background()
	payload, err := decodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(call string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "perfdmfd -fsck") {
			t.Errorf("%s of %s = %v; want ErrCorrupt naming perfdmfd -fsck of the previous release", call, what, err)
		}
	}
	_, err = DecodeTrial(data)
	refused("DecodeTrial", err)
	_, err = DecodeColumnar(payload)
	refused("DecodeColumnar", err)
	dir := t.TempDir()
	repo := mustOpen(t, dir)
	_, err = repo.SaveEncoded(ctx, data)
	refused("SaveEncoded", err)
	if files := trialFiles(t, dir, ""); len(files) != 0 {
		t.Fatalf("refused %s left files behind: %v", what, files)
	}
	for call, read := range map[string]func(r *Repository) error{
		"GetTrial":   func(r *Repository) error { _, err := r.GetTrial(app, exp, name); return err },
		"GetEncoded": func(r *Repository) error { _, err := r.GetEncoded(ctx, app, exp, name); return err },
	} {
		dir := t.TempDir()
		p := filepath.Join(dir, safe(app), safe(exp), safe(name)+".json")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		repo := mustOpen(t, dir)
		refused(call, read(repo))
		if kept, err := os.ReadFile(p + ".corrupt"); err != nil || !bytes.Equal(kept, data) {
			t.Errorf("%s of %s: the file was not set aside intact (err=%v)", call, what, err)
		}
		rep, err := repo.Verify()
		if err != nil || rep.Clean() || len(rep.Quarantined) != 1 || rep.Trials != 0 || rep.Upgraded != 0 {
			t.Errorf("fsck after %s of %s = %+v, %v; want the one file reported quarantined", call, what, rep, err)
		}
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
	payload, _ := decodeEnvelope(valid)
	inflated := strings.Replace(minimalHeader, `"threads":1`, `"threads":1000000000`, 1)
	bomb := strings.Replace(minimalHeader, `"threads":1`, `"threads":2147483648`, 1)
	// The binary header has one spelling: each of these is minimalHdr with
	// one field spelled another way, which the decoder refuses before any
	// comparison of bytes.
	body := minimalBody(0x01, 0x01)
	head := hdr{}.lit("a").lit("e").lit("n")
	header := func(h hdr) []byte { return encodeEnvelope(craftHdr(h, body)) }
	spaced := header(head.raw(0x81, 0x00).n(1).lit("TIME").n(1).n(1).ref(2).n(0).n(1).ref(4).n(0)) // threads in two bytes
	reordered := header(minimalHdr()[:len(minimalHdr())-1].n(2).lit("k2").lit("v").lit("k1").ref(6))
	// %PDMFCOL3 bodies are accepted without comparing bytes, so each of
	// these has to fall to the checksum, the structural decode or Validate.
	validPrev := encodeEnvelope(craftColumnarAs(columnarMagicPrev, minimalHeader, minimalBody(0x01, 0x01)))
	if _, err := DecodeTrial(validPrev); err != nil {
		t.Fatalf("baseline %%PDMFCOL3 encoding must decode: %v", err)
	}
	payloadPrev, _ := decodeEnvelope(validPrev)
	// Behind the magics two and three versions back nothing is accepted,
	// damaged or not.
	retiredAs := func(magic string) func(payload []byte) []byte {
		return func(payload []byte) []byte {
			return encodeEnvelope(append([]byte(magic), payload[len(columnarMagic):]...))
		}
	}
	retired, col2 := retiredAs(retiredMagic), retiredAs(col2Magic)
	validV1, validCol2 := retired(payload), col2(payloadPrev)
	// Checksummed, decodable, Validate-clean and a fixed point of decode →
	// encode, but not how ColumnsFromTrial pivots the trial held: these fall
	// to isPivot alone, in either payload version.
	notPivot := func(perturb func(c *Columns)) *Columns {
		tr := miniTrial("a", "e", "n", 1)
		tr.AddMetric("CPU_CYCLES")
		tr.EnsureEvent("loop").Exclusive["EXTRA"] = []float64{7}
		c, err := ColumnsFromTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		perturb(c)
		if _, err := DecodeColumnar(prevColumnsPayload(t, c)); err != nil || c.isPivot() {
			t.Fatalf("perturbed columns must decode and not be a pivot (err=%v)", err)
		}
		return c
	}
	v2 := func(c *Columns) []byte {
		p, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return encodeEnvelope(p)
	}
	swapped := notPivot(func(c *Columns) { c.Cols[0], c.Cols[1] = c.Cols[1], c.Cols[0] })
	extraFirst := notPivot(func(c *Columns) { c.Cols[0], c.Cols[1], c.Cols[2] = c.Cols[2], c.Cols[0], c.Cols[1] })
	missing := notPivot(func(c *Columns) { c.Cols = c.Cols[1:] })
	nobody := notPivot(func(c *Columns) {
		c.Cols = append(c.Cols, MetricColumn{Metric: "NOBODY", Inc: make([]float64, 2), Exc: make([]float64, 2),
			IncPresent: make([]bool, 2), ExcPresent: make([]bool, 2)})
	})
	ghost := notPivot(func(c *Columns) { c.Cols[2].Exc[0] = 3 }) // EXTRA is absent on "main"
	emptyMetrics := notPivot(func(c *Columns) { c.Metrics, c.Cols = []string{}, nil })
	return map[string][]byte{
		"empty":                        nil,
		"truncated envelope":           valid[:len(valid)-9],
		"flipped payload bit":          flipByte(valid, len(envelopeMagic)+len(columnarMagic)+30),
		"flipped CRC digit":            flipByte(valid, len(valid)-12),
		"dimension-inflated header":    encodeEnvelope(craftColumnar(inflated, minimalBody(0x01, 0x01))),
		"zero-row bomb":                encodeEnvelope(craftColumnar(bomb, []byte{0, 0x01, 0x01, 0, 0})),
		"width 9":                      encodeEnvelope(craftColumnar(minimalHeader, minimalBodyWith([]byte{9, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0}, 0x01, 0x01))),
		"over-wide row":                encodeEnvelope(craftColumnar(minimalHeader, minimalBodyWith([]byte{8, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0}, 0x01, 0x01))),
		"truncated inside a row":       encodeEnvelope(craftColumnar(minimalHeader, []byte{2, 0x3f})),
		"trailing bytes in payload":    encodeEnvelope(append(append([]byte(nil), payload...), 0)),
		"trailing bytes after":         append(append([]byte(nil), valid...), '\n'),
		"non-canonical header spaces":  spaced,
		"non-canonical header order":   reordered,
		"duplicate literal":            header(head.n(1).n(1).lit("TIME").n(1).n(1).lit("e").n(0).n(1).ref(4).n(0)),
		"reference past the table":     header(head.n(1).n(1).lit("TIME").n(1).n(1).ref(2).n(0).n(1).ref(5).n(0)),
		"separator inside a segment":   header(head.n(1).n(1).lit("TIME").n(1).n(1).lit("x => y").n(0).n(1).ref(4).n(0)),
		"segments splitting otherwise": header(head.n(1).n(1).lit("TIME").n(1).n(2).lit("x =>").lit("y").n(0).n(1).ref(4).n(0)),
		"count past the header":        header(head.n(1).n(1).lit("TIME").n(200).n(1).ref(2).n(0).n(1).ref(4).n(0)),
		"legacy plain JSON":            []byte(`{"application":"a","experiment":"e","name":"n","threads":1,"metrics":null,"events":[]}`),
		"legacy JSON in envelope":      encodeEnvelope([]byte(`{"application":"a","experiment":"e","name":"n","threads":1,"metrics":null,"events":[]}`)),
		"col3 flipped payload bit":     flipByte(validPrev, len(envelopeMagic)+len(columnarMagicPrev)+30),
		"col3 flipped CRC digit":       flipByte(validPrev, len(validPrev)-12),
		"col3 bad header JSON":         encodeEnvelope(craftColumnarAs(columnarMagicPrev, minimalHeader[:20], minimalBody(0x01, 0x01))),
		"col3 dimension-inflated":      encodeEnvelope(craftColumnarAs(columnarMagicPrev, inflated, minimalBody(0x01, 0x01))),
		"col3 cut short":               encodeEnvelope(payloadPrev[:len(payloadPrev)-3]),
		"col3 trailing bytes":          encodeEnvelope(append(append([]byte(nil), payloadPrev...), 0)),
		"col3 invalid trial":           encodeEnvelope(craftColumnarAs(columnarMagicPrev, minimalHeader, minimalBody(0x01, 0x00))), // inclusive without exclusive
		"col2 well-formed":             validCol2,
		"col2 flipped payload bit":     flipByte(validCol2, len(envelopeMagic)+len(col2Magic)+30),
		"col2 flipped CRC digit":       flipByte(validCol2, len(validCol2)-12),
		"col2 dimension-inflated":      col2(craftColumnarAs(columnarMagicPrev, inflated, minimalBody(0x01, 0x01))),
		"col2 cut short":               col2(payloadPrev[:len(payloadPrev)-3]),
		"col2 trailing bytes":          col2(append(append([]byte(nil), payloadPrev...), 0)),
		"col2 invalid trial":           col2(craftColumnarAs(columnarMagicPrev, minimalHeader, minimalBody(0x01, 0x00))),
		"col2 with a row kind":         col2(craftColumnarAs(columnarMagicPrev, minimalHeader, rowsBody(callsOne, callsOne, []byte{rowSameAsInc}))),
		"v1 well-formed":               validV1,
		"v1 flipped payload bit":       flipByte(validV1, len(envelopeMagic)+len(retiredMagic)+30),
		"v1 flipped CRC digit":         flipByte(validV1, len(validV1)-12),
		"v1 dimension-inflated":        retired(craftColumnar(inflated, minimalBody(0x01, 0x01))),
		"v1 cut short":                 retired(payload[:len(payload)-3]),
		"v1 trailing bytes":            retired(append(append([]byte(nil), payload...), 0)),
		"v1 invalid trial":             retired(craftColumnar(minimalHeader, minimalBody(0x01, 0x00))),
		"columns swapped":              v2(swapped),
		"unregistered column first":    v2(extraFirst),
		"registered metric no column":  v2(missing),
		"column nobody has":            v2(nobody),
		"values under a clear bit":     v2(ghost),
		// The binary header spells an empty list one way; JSON had two.
		"empty metric list not null":    encodeEnvelope(prevColumnsPayload(t, emptyMetrics)),
		"col3 columns swapped":          encodeEnvelope(prevColumnsPayload(t, swapped)),
		"col3 values under a clear bit": encodeEnvelope(prevColumnsPayload(t, ghost)),
		"col2 columns swapped":          col2(prevColumnsPayload(t, swapped)),
		"col2 values under a clear bit": col2(prevColumnsPayload(t, ghost)),
		"v1 columns swapped":            retired(prevColumnsPayload(t, swapped)),
		"v1 values under a clear bit":   retired(prevColumnsPayload(t, ghost)),
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
			if !errors.Is(err, ErrCorrupt) || got.Threads != 0 || got.Encoded != nil {
				t.Fatalf("SaveEncoded = %v, %v; want the zero Stored and ErrCorrupt", got, err)
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
// writes for the same trial; what it returns describes that trial, and the
// trial reads back.
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
		if want := (Stored{tr.App, tr.Experiment, tr.Name, tr.Threads, len(tr.Events), len(tr.Metrics), data}); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SaveEncoded returned %+v", i, got)
		}
		if back, err := viaEncoded.GetTrial(tr.App, tr.Experiment, tr.Name); err != nil || canonicalTrialDump(back) != canonicalTrialDump(tr.Clone()) {
			t.Fatalf("trial %d: SaveEncoded stored a different trial (err=%v)", i, err)
		}
		a := rawTrialFile(t, viaSave, tr.App, tr.Experiment, tr.Name)
		b := rawTrialFile(t, viaEncoded, tr.App, tr.Experiment, tr.Name)
		if !bytes.Equal(a, b) || !bytes.Equal(b, data) {
			t.Fatalf("trial %d: Save, SaveEncoded and EncodeTrial disagree on the stored bytes", i)
		}
	}
}

// The one body SaveEncoded accepts that is not canonical: a %PDMFCOL3
// encoding is stored as the re-encoding of the trial it holds.
func TestSaveEncodedReencodesPreviousVersion(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	repo := mustOpen(t, t.TempDir())
	for i := 0; i < 40; i++ {
		tr := genColTrial(r, "t"+strconv.Itoa(i), 1+r.Intn(4))
		got, err := repo.SaveEncoded(context.Background(), encodeEnvelope(prevColumnarPayload(t, tr)))
		if err != nil {
			t.Fatalf("trial %d: SaveEncoded of a %%PDMFCOL3 body: %v", i, err)
		}
		want, err := EncodeTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := repo.GetTrial(tr.App, tr.Experiment, tr.Name); err != nil || canonicalTrialDump(back) != canonicalTrialDump(tr.Clone()) || !bytes.Equal(got.Encoded, want) {
			t.Fatalf("trial %d: SaveEncoded stored or returned a different trial (err=%v)", i, err)
		}
		if file := rawTrialFile(t, repo, tr.App, tr.Experiment, tr.Name); !bytes.Equal(file, want) || !isColumnarFile(t, file) {
			t.Fatalf("trial %d: %%PDMFCOL3 body not stored as EncodeTrial's output", i)
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

// A directory of %PDMFCOL3 files, as the previous release wrote them — one
// of them under the underscore path scheme — serves both representations; a
// file is upgraded by its next save, and whatever is still legacy by one
// Verify, after which a second finds none.
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
	stray := miniTrial("my app", "exp", "stray", 1)
	unread := miniTrial("my app", "exp", "unread", 2)
	prev := miniTrial("my app", "exp", "prev", 3)
	prevFile := encodeEnvelope(prevColumnarPayload(t, prev))
	plant(filepath.Join(dir, "my_app", "exp", "stray.json"), encodeEnvelope(prevColumnarPayload(t, stray))) // underscore scheme
	plant(filepath.Join(dir, safe("my app"), "exp", "unread.json"), encodeEnvelope(prevColumnarPayload(t, unread)))
	plant(filepath.Join(dir, safe("my app"), "exp", "prev.json"), prevFile)

	repo := mustOpen(t, dir)
	canon := func(tr *Trial) []byte {
		t.Helper()
		data, err := EncodeTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// The two files at their own paths read in both representations, and
	// reading rewrites nothing.
	for _, want := range []*Trial{unread, prev} {
		data, err := repo.GetEncoded(ctx, want.App, want.Experiment, want.Name)
		if err != nil {
			t.Fatalf("%s: GetEncoded: %v", want.Name, err)
		}
		if !bytes.Equal(data, canon(want)) {
			t.Errorf("%s: legacy file not re-encoded to the canonical form", want.Name)
		}
		got, err := repo.GetTrial(want.App, want.Experiment, want.Name)
		if err != nil || canonicalTrialDump(got) != canonicalTrialDump(want) {
			t.Errorf("%s: GetTrial: err=%v", want.Name, err)
		}
	}
	if file := rawTrialFile(t, repo, prev.App, prev.Experiment, prev.Name); !bytes.Equal(file, prevFile) {
		t.Error("reading a %PDMFCOL3 file rewrote it")
	}
	// The next save upgrades a file — here the old bytes of prev, as a hint
	// queued before the upgrade would replay them.
	if _, err := repo.SaveEncoded(ctx, prevFile); err != nil {
		t.Fatalf("SaveEncoded of the %%PDMFCOL3 bytes: %v", err)
	}
	if file := rawTrialFile(t, repo, prev.App, prev.Experiment, prev.Name); !bytes.Equal(file, canon(prev)) {
		t.Error("prev: file not upgraded to the encoded form by its save")
	}
	// Verify moves the underscore-scheme file home and upgrades the rest.
	rep, err := repo.Verify()
	if err != nil || rep.Trials != 3 || rep.Legacy != 2 || rep.Upgraded != 2 || len(rep.Relocated) != 1 || !rep.Clean() {
		t.Fatalf("fsck over legacy files = %+v, %v; want 3 trials, 2 legacy, 2 upgraded, 1 relocated, clean", rep, err)
	}
	for _, want := range []*Trial{stray, unread, prev} {
		if file := rawTrialFile(t, repo, want.App, want.Experiment, want.Name); !bytes.Equal(file, canon(want)) {
			t.Errorf("%s: file is not EncodeTrial's output after fsck", want.Name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "my_app", "exp", "stray.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("underscore-scheme twin survived the upgrade: %v", err)
	}
	if rep, err := repo.Verify(); err != nil || rep.Trials != 3 || rep.Legacy != 0 || rep.Upgraded != 0 || !rep.Clean() {
		t.Fatalf("second fsck = %+v, %v; want 3 trials, 0 legacy, 0 upgraded", rep, err)
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

// Verify upgrades nothing while the repository is read-only — a full volume
// is no place to rewrite every file — and picks the files up on the first
// scan after space is back. A failed rewrite is a scan error and leaves the
// old file.
func TestVerifyUpgradeReadOnlyAndFailure(t *testing.T) {
	dir := t.TempDir()
	old, err := os.ReadFile(filepath.Join("testdata", "col3_sparse.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "app", "exp", "sparse.json")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, old, 0o644); err != nil {
		t.Fatal(err)
	}
	f := vfs.NewFaulty(vfs.OS{})
	repo, err := OpenRepositoryFS(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	f.Inject(vfs.Fault{Op: vfs.OpWriteFile, Err: syscall.ENOSPC})
	for i := 0; i < readOnlyAfterENOSPC; i++ {
		_ = repo.Save(miniTrial("app", "exp", "other", 1))
	}
	rep, err := repo.Verify()
	if err != nil || !rep.ReadOnly || rep.Legacy != 1 || rep.Upgraded != 0 || len(rep.Errors) != 0 {
		t.Fatalf("fsck on a full volume = %+v, %v; want read-only, 1 legacy, nothing upgraded, no errors", rep, err)
	}
	if cur, _ := os.ReadFile(p); !bytes.Equal(cur, old) {
		t.Fatal("read-only fsck touched the legacy file")
	}
	// Writable again, but the rename of the rewrite fails once.
	f.Clear()
	f.Inject(vfs.Fault{Op: vfs.OpRename, Err: syscall.EIO, Count: 1})
	rep, err = repo.Verify()
	if err != nil || rep.ReadOnly || rep.Upgraded != 0 || len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0], "upgrade") {
		t.Fatalf("fsck with a failing rewrite = %+v, %v; want one upgrade error", rep, err)
	}
	if cur, _ := os.ReadFile(p); !bytes.Equal(cur, old) {
		t.Fatal("failed rewrite did not leave the old file")
	}
	if files := trialFiles(t, dir, ".tmp"); len(files) != 0 {
		t.Fatalf("failed rewrite left temp files: %v", files)
	}
	rep, err = repo.Verify()
	if err != nil || rep.Legacy != 1 || rep.Upgraded != 1 || !rep.Clean() {
		t.Fatalf("fsck after the fault cleared = %+v, %v; want 1 legacy, 1 upgraded, clean", rep, err)
	}
	if cur, _ := os.ReadFile(p); !isColumnarFile(t, cur) {
		t.Fatal("file still not in the current form")
	}
}

// Blocks are dense in memory and packed on disk: an absent (event, metric)
// pair is a row of zeros, one width byte. A very sparse trial — every event
// with a metric of its own and nothing else — used to store at 100× its
// JSON; now it is at par when every value is 0 (JSON's cheapest, 2 bytes a
// value) and smaller as soon as the values are measurements — and a row that
// repeats the inclusive row, or one value, costs its kind byte, or that and
// the value. The test pins the arithmetic DESIGN.md records.
func TestSparseTrialsStoreSmallerThanJSON(t *testing.T) {
	const events, threads = 64, 16
	tr := NewTrial("app", "exp", "sparse", threads)
	for i := 0; i < events; i++ {
		e := tr.EnsureEvent("f" + strconv.Itoa(i))
		e.Inclusive["M"+strconv.Itoa(i)] = make([]float64, threads)
		e.Exclusive["M"+strconv.Itoa(i)] = make([]float64, threads)
	}
	sizes := func() (enc, blocks, js int) {
		t.Helper()
		data, err := EncodeTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := decodeEnvelope(data)
		hlen := int(binary.LittleEndian.Uint32(payload[len(columnarMagic):]))
		compact, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		return len(data), len(payload) - len(columnarMagic) - 4 - hlen, len(compact)
	}
	enc, blocks, js := sizes()
	zeroBlocks := events + events*(2*((events+7)/8)+2*events)
	if blocks != zeroBlocks {
		t.Errorf("block bytes = %d, want %d (calls + per column: 2 bitmaps + 2 blocks, one width byte a row)", blocks, zeroBlocks)
	}
	if enc*100 > js*102 {
		t.Errorf("all-zero sparse trial: encoded %d B, JSON %d B — more than 2%% apart", enc, js)
	}
	// Measurements in every event's own metric: those 2 rows per event go to
	// width 8, nothing else moves, and JSON pays ~18 bytes a value.
	for i, e := range tr.Events {
		for th := 0; th < threads; th++ {
			v := math.Sqrt(float64(i*threads + th + 2)) // full-precision, as timers give
			e.SetValue("M"+strconv.Itoa(i), th, 2*v, v)
		}
	}
	enc, blocks, js = sizes()
	if want := zeroBlocks + events*2*8*threads; blocks != want {
		t.Errorf("block bytes with measurements = %d, want %d", blocks, want)
	}
	if enc >= js {
		t.Errorf("sparse trial with measurements: encoded %d B ≥ JSON %d B", enc, js)
	}
	// Leaf events — exclusive = inclusive: the exclusive rows shrink to their
	// kind byte, which zeroBlocks already counts.
	for i, e := range tr.Events {
		copy(e.Exclusive["M"+strconv.Itoa(i)], e.Inclusive["M"+strconv.Itoa(i)])
	}
	if _, blocks, _ = sizes(); blocks != zeroBlocks+events*8*threads {
		t.Errorf("block bytes with leaf events = %d, want %d", blocks, zeroBlocks+events*8*threads)
	}
	// SPMD threads — one measurement on every thread, inclusive twice the
	// exclusive: both rows are that one value, whatever the thread count.
	for i, e := range tr.Events {
		for th := 0; th < threads; th++ {
			v := math.Sqrt(float64(i) + 2.5) // irrational: all 8 bytes
			e.SetValue("M"+strconv.Itoa(i), th, 2*v, v)
		}
	}
	if _, blocks, _ = sizes(); blocks != zeroBlocks+events*2*8 {
		t.Errorf("block bytes with one value a row = %d, want %d", blocks, zeroBlocks+events*2*8)
	}
}
