package dmfserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfwire"
	"perfknow/internal/faults"
	"perfknow/internal/perfdmf"
)

// One trial encoding from client to disk: these tests drive a real
// httptest daemon with both representations in both directions and pin
// that the stored file never depends on which one carried the trial.

// --- helpers ------------------------------------------------------------

// trialDump renders a trial with every float as its IEEE bits, so NaN
// payloads, infinities and signed zeros count. nil and empty maps, slices
// and metadata render alike: JSON cannot tell them apart.
func trialDump(tr *perfdmf.Trial) string {
	var sb strings.Builder
	bits := func(xs []float64) {
		for _, x := range xs {
			fmt.Fprintf(&sb, " %016x", math.Float64bits(x))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "trial %q/%q/%q threads=%d metrics=%q\n", tr.App, tr.Experiment, tr.Name, tr.Threads, tr.Metrics)
	keys := make([]string, 0, len(tr.Metadata))
	for k := range tr.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "meta %q=%q\n", k, tr.Metadata[k])
	}
	for _, e := range tr.Events {
		fmt.Fprintf(&sb, "event %q groups=%q calls=", e.Name, e.Groups)
		bits(e.Calls)
		for _, side := range []struct {
			tag string
			m   map[string][]float64
		}{{"inc", e.Inclusive}, {"exc", e.Exclusive}} {
			ms := make([]string, 0, len(side.m))
			for m := range side.m {
				ms = append(ms, m)
			}
			sort.Strings(ms)
			for _, m := range ms {
				fmt.Fprintf(&sb, " %s %q =", side.tag, m)
				bits(side.m[m])
			}
		}
	}
	return sb.String()
}

// genWireTrial is PR 8's adversarial generator: events missing registered
// metrics, exclusive-only data, unregistered extras, callpaths, groups,
// metadata, names that need escaping, -0 — and, unless finite is set (JSON
// cannot carry them), NaNs with payloads and ±Inf.
func genWireTrial(r *rand.Rand, name string, threads int, finite bool) *perfdmf.Trial {
	value := func() float64 {
		k := r.Intn(12)
		if finite && k < 5 {
			k = 5 + r.Intn(7)
		}
		switch k {
		case 0:
			return math.NaN()
		case 1:
			return math.Float64frombits(0x7ff8_0000_0000_dead)
		case 2:
			return math.Float64frombits(0xfff8_0000_0000_beef)
		case 3:
			return math.Inf(1)
		case 4:
			return math.Inf(-1)
		case 5:
			return math.Copysign(0, -1)
		default:
			return r.NormFloat64() * 1e6
		}
	}
	t := perfdmf.NewTrial("app µ", "exp/1", name, threads)
	pool := []string{perfdmf.TimeMetric, "PAPI_FP_OPS", "BYTES"}
	for i := 0; i < 1+r.Intn(len(pool)); i++ {
		t.AddMetric(pool[i])
	}
	if r.Intn(2) == 0 {
		t.Metadata["host"] = "node" + strconv.Itoa(r.Intn(3))
	}
	for i, nev := 0, r.Intn(8); i < nev; i++ {
		e := t.EnsureEvent("f" + strconv.Itoa(i))
		for th := 0; th < threads; th++ {
			e.Calls[th] = float64(r.Intn(50))
		}
		if r.Intn(3) == 0 {
			e.Groups = []string{"MPI"}
		}
		for _, m := range t.Metrics {
			switch r.Intn(5) {
			case 0:
				delete(e.Inclusive, m)
				delete(e.Exclusive, m)
			case 1:
				delete(e.Inclusive, m)
				for th := 0; th < threads; th++ {
					e.Exclusive[m][th] = value()
				}
			default:
				for th := 0; th < threads; th++ {
					e.SetValue(m, th, value(), value())
				}
			}
		}
		if r.Intn(4) == 0 {
			vals := make([]float64, threads)
			for th := range vals {
				vals[th] = value()
			}
			e.Exclusive["EXTRA"] = vals
		}
	}
	if len(t.Events) >= 2 {
		cp := t.EnsureEvent(t.Events[0].Name + perfdmf.CallpathSeparator + t.Events[1].Name)
		for th := 0; th < threads; th++ {
			cp.SetValue(t.Metrics[0], th, value(), value())
		}
	}
	return t
}

// encodedService is newService plus the pieces header-level tests need.
type encodedService struct {
	dir  string
	repo *perfdmf.Repository
	ts   *httptest.Server
	c    *dmfclient.Client
}

func newEncodedService(t *testing.T, cfg Config, opts ...dmfclient.Option) *encodedService {
	t.Helper()
	return newEncodedServiceAt(t, t.TempDir(), cfg, opts...)
}

// newEncodedServiceAt serves the repository directory dir, which may
// already hold trial files.
func newEncodedServiceAt(t *testing.T, dir string, cfg Config, opts ...dmfclient.Option) *encodedService {
	t.Helper()
	s := &encodedService{dir: dir}
	var err error
	if s.repo, err = perfdmf.OpenRepository(s.dir); err != nil {
		t.Fatal(err)
	}
	cfg.Repo = s.repo
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	s.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(s.ts.Close)
	if s.c, err = dmfclient.New(s.ts.URL, opts...); err != nil {
		t.Fatal(err)
	}
	return s
}

// request issues one raw HTTP request and returns status, headers and body.
func (s *encodedService) request(t *testing.T, method, path string, hdr map[string]string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func trialURL(tr *perfdmf.Trial) string {
	return "/api/v1/apps/" + url.PathEscape(tr.App) + "/experiments/" + url.PathEscape(tr.Experiment) + "/trials/" + url.PathEscape(tr.Name)
}

// storedFiles returns rel path → contents of every file under dir.
func storedFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		rel, _ := filepath.Rel(dir, p)
		out[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// --- (a) differential: {JSON, encoded} × {upload, get} ---------------------

func TestWireDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20080912))
	viaJSON := newEncodedService(t, Config{})
	viaEncoded := newEncodedService(t, Config{})
	localDir := t.TempDir()
	local, err := perfdmf.OpenRepository(localDir)
	if err != nil {
		t.Fatal(err)
	}
	encodedHdr := map[string]string{"Accept": dmfwire.TrialContentType}

	for i := 0; i < 60; i++ {
		finite := i%3 != 0
		tr := genWireTrial(r, fmt.Sprintf("t%02d", i), 1+r.Intn(4), finite)
		if err := local.Save(tr); err != nil {
			t.Fatal(err)
		}
		// Upload: the encoded form through the client; JSON by hand, as
		// curl or a pre-upgrade client would. JSON cannot carry NaN/Inf.
		if err := viaEncoded.c.SaveContext(context.Background(), tr); err != nil {
			t.Fatalf("trial %d: encoded upload: %v", i, err)
		}
		services := []*encodedService{viaEncoded}
		if finite {
			body, err := json.Marshal(tr)
			if err != nil {
				t.Fatal(err)
			}
			if status, _, resp := viaJSON.request(t, "POST", "/api/v1/trials", map[string]string{"Content-Type": "application/json"}, body); status != http.StatusCreated {
				t.Fatalf("trial %d: JSON upload: HTTP %d: %s", i, status, resp)
			}
			services = append(services, viaJSON)
		}
		localCopy, err := local.GetTrial(tr.App, tr.Experiment, tr.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range services {
			// Get, encoded: through the client, and the raw body must be
			// the stored file itself.
			got, err := s.c.GetTrialContext(context.Background(), tr.App, tr.Experiment, tr.Name)
			if err != nil {
				t.Fatalf("trial %d: encoded get: %v", i, err)
			}
			if trialDump(got) != trialDump(tr) {
				t.Fatalf("trial %d: encoded get differs from what was uploaded\nwant:\n%s\ngot:\n%s", i, trialDump(tr), trialDump(got))
			}
			status, hdr, raw := s.request(t, "GET", trialURL(tr), encodedHdr, nil)
			if status != http.StatusOK || hdr.Get("Content-Type") != dmfwire.TrialContentType {
				t.Fatalf("trial %d: raw encoded get: HTTP %d, Content-Type %q", i, status, hdr.Get("Content-Type"))
			}
			want, err := perfdmf.EncodeTrial(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("trial %d: encoded get body is not the canonical encoding", i)
			}
			// Get, JSON: what a local repository hands out for the same
			// trial (both serve the columns their first read of it
			// cached), or a 500 that names the value when JSON cannot
			// represent the trial.
			status, hdr, raw = s.request(t, "GET", trialURL(tr), nil, nil)
			if hdr.Get("Content-Type") != "application/json" {
				t.Fatalf("trial %d: JSON get Content-Type %q", i, hdr.Get("Content-Type"))
			}
			if _, err := json.Marshal(localCopy); err != nil {
				if status != http.StatusInternalServerError || !strings.Contains(string(raw), "unsupported value") {
					t.Fatalf("trial %d: JSON get of a non-finite trial: HTTP %d: %s", i, status, raw)
				}
				continue
			}
			if status != http.StatusOK {
				t.Fatalf("trial %d: JSON get: HTTP %d: %s", i, status, raw)
			}
			var viaWire perfdmf.Trial
			if err := json.Unmarshal(raw, &viaWire); err != nil {
				t.Fatalf("trial %d: JSON get body: %v", i, err)
			}
			if trialDump(&viaWire) != trialDump(localCopy) {
				t.Fatalf("trial %d: JSON get differs from a local GetTrial", i)
			}
		}
	}

	// Whatever carried a trial, its file is the one a local Save writes.
	want := storedFiles(t, localDir)
	for name, s := range map[string]*encodedService{"JSON": viaJSON, "encoded": viaEncoded} {
		got := storedFiles(t, s.dir)
		for rel, data := range got {
			if !bytes.Equal(data, want[rel]) {
				t.Errorf("%s uploads: %s differs from the file a local Save writes", name, rel)
			}
		}
		if name == "encoded" && len(got) != len(want) {
			t.Errorf("encoded uploads stored %d files, local saves %d", len(got), len(want))
		}
	}
}

// A whole upload in either representation and a sealed stream store the
// same bytes.
func TestWholeUploadsAndSealedStreamStoreSameBytes(t *testing.T) {
	viaJSON, viaEncoded, viaStream := newEncodedService(t, Config{}), newEncodedService(t, Config{}), newEncodedService(t, Config{})
	tr := stallTrial("app", "exp", "t1")
	body, _ := json.Marshal(tr)
	if status, _, resp := viaJSON.request(t, "POST", "/api/v1/trials", nil, body); status != http.StatusCreated {
		t.Fatalf("JSON upload: HTTP %d: %s", status, resp)
	}
	if err := viaEncoded.c.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	info, err := viaStream.c.OpenStream(ctx, "app", "exp", "t1", tr.Threads, tr.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	for i, chunk := range trialChunks(tr, 1) {
		if _, err := viaStream.c.Append(ctx, info.ID, int64(i+1), chunk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := viaStream.c.Seal(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	want, err := perfdmf.EncodeTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*encodedService{"JSON upload": viaJSON, "encoded upload": viaEncoded, "sealed stream": viaStream} {
		files := storedFiles(t, s.dir)
		if got := files["app/exp/t1.json"]; len(files) != 1 || !bytes.Equal(got, want) {
			t.Errorf("%s: stored %d files; app/exp/t1.json equals EncodeTrial output: %v", name, len(files), bytes.Equal(got, want))
		}
	}
}

// --- satellite: encodeJSON must not swallow encoder errors -----------------

func TestJSONGetOfNonFiniteTrialIs500(t *testing.T) {
	s := newEncodedService(t, Config{}, dmfclient.WithRetryPolicy(dmfclient.RetryPolicy{MaxAttempts: 1}))
	tr := stallTrial("app", "exp", "nan")
	tr.Event("hot").Exclusive[perfdmf.TimeMetric][0] = math.Float64frombits(0x7ff8_0000_0000_1234)
	tr.Event("hot").Inclusive[perfdmf.TimeMetric][1] = math.Inf(-1)
	if err := s.c.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	status, _, body := s.request(t, "GET", trialURL(tr), nil, nil)
	var e apiError
	if status != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "unsupported value") {
		t.Fatalf("JSON get of a trial holding NaN: HTTP %d, body %q; want 500 naming the unsupported value", status, body)
	}
	got, err := s.c.GetTrialContext(context.Background(), "app", "exp", "nan")
	if err != nil {
		t.Fatalf("encoded get of the same trial: %v", err)
	}
	if trialDump(got) != trialDump(tr) {
		t.Fatal("encoded get is not bit-exact for NaN payloads and -Inf")
	}
}

// --- (b) hostile uploads -------------------------------------------------

// wrapEnvelope is the %PDMF1 envelope written from its documentation, so
// the table below can put a valid checksum around a damaged payload.
func wrapEnvelope(payload []byte) []byte {
	sum := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	return []byte(fmt.Sprintf("%%PDMF1\n%s\n%%PDMF1 crc32c=%08x len=%d\n", payload, sum, len(payload)))
}

// columnarCol3 is a %PDMFCOL3 payload, the encoding two versions back,
// written from its documentation: header, a JSON object, then value blocks,
// cut from the current payload cur. It is refused by name whatever its
// blocks hold.
func columnarCol3(header string, cur []byte) []byte {
	const at = len("%PDMFCOL5\n")
	blocks := cur[at+4+int(binary.LittleEndian.Uint32(cur[at:])):]
	p := binary.LittleEndian.AppendUint32([]byte("%PDMFCOL3\n"), uint32(len(header)))
	return append(append(p, header...), blocks...)
}

// jsonHeader is the %PDMFCOL3 header of c, as the encoder of that version
// wrote it: json.Marshal of these fields.
func jsonHeader(c *perfdmf.Columns) string {
	type event struct {
		Name   string   `json:"name"`
		Groups []string `json:"groups,omitempty"`
	}
	h := struct {
		App        string            `json:"application"`
		Experiment string            `json:"experiment"`
		Name       string            `json:"name"`
		Threads    int               `json:"threads"`
		Metrics    []string          `json:"metrics"`
		Events     []event           `json:"events"`
		Columns    []string          `json:"columns"`
		Metadata   map[string]string `json:"metadata,omitempty"`
	}{App: c.App, Experiment: c.Experiment, Name: c.Name, Threads: c.Threads, Metrics: c.Metrics, Metadata: c.Metadata}
	for i, name := range c.EventNames {
		h.Events = append(h.Events, event{name, c.Groups[i]})
	}
	for _, col := range c.Cols {
		h.Columns = append(h.Columns, col.Metric)
	}
	b, err := json.Marshal(h)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// A body in the previous encoding — what a hint queued before the upgrade
// replays and a client one version behind uploads — is accepted and stored
// as its re-encoding, so the repository still holds one form. The body is a
// checked-in file written by the last encoder of that version, whose integer
// rows it spells as literals.
func TestPreviousColumnarUploadIsStoredReencoded(t *testing.T) {
	s := newEncodedService(t, Config{})
	prev, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col4_synthetic.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := perfdmf.DecodeTrial(prev)
	if err != nil || !bytes.Contains(prev[:32], []byte("%PDMFCOL4\n")) {
		t.Fatalf("testdata is not a %%PDMFCOL4 trial (err=%v)", err)
	}
	want, err := perfdmf.EncodeTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev) <= len(want) {
		t.Fatalf("the previous encoding of a trial of integers is %d B, the current %d B", len(prev), len(want))
	}
	hdr := map[string]string{"Content-Type": dmfwire.TrialContentType}
	status, _, body := s.request(t, "POST", "/api/v1/trials", hdr, prev)
	if status != http.StatusCreated {
		t.Fatalf("%%PDMFCOL4 upload: HTTP %d: %s", status, body)
	}
	files := storedFiles(t, s.dir)
	if got := files["dmfload/exp-00/trial-0000.json"]; len(files) != 1 || !bytes.Equal(got, want) {
		t.Fatalf("stored %d files; dmfload/exp-00/trial-0000.json equals EncodeTrial output: %v", len(files), bytes.Equal(got, want))
	}
	if got, err := s.c.GetTrialContext(context.Background(), tr.App, tr.Experiment, tr.Name); err != nil || trialDump(got) != trialDump(tr) {
		t.Fatalf("trial uploaded as %%PDMFCOL4 reads back differently (err=%v)", err)
	}
}

func TestHostileEncodedUploads(t *testing.T) {
	tr := stallTrial("app", "exp", "t1")
	valid, err := perfdmf.EncodeTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	const head, tail = len("%PDMF1\n"), len("\n%PDMF1 crc32c=00000000 len=\n")
	trailer := bytes.LastIndex(valid, []byte("\n%PDMF1 crc32c="))
	payload := valid[head:trailer]
	if !bytes.Equal(wrapEnvelope(payload), valid) {
		t.Fatal("wrapEnvelope does not reproduce EncodeTrial's envelope")
	}
	const colMagic = len("%PDMFCOL5\n")
	hlen := int(binary.LittleEndian.Uint32(payload[colMagic:]))
	header, blocks := string(payload[colMagic+4:colMagic+4+hlen]), payload[colMagic+4+hlen:]
	// The binary header opens with the coordinates, three literals (a zero,
	// the length, the bytes: "app", "exp", "t1"), then the thread count.
	const threadsAt = 2 + 3 + 2 + 3 + 2 + 2
	respell := func(with ...byte) string { return header[:threadsAt] + string(with) + header[threadsAt+1:] }
	withHeader := func(h string) []byte {
		p := append([]byte(nil), payload[:colMagic]...)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(h)))
		return wrapEnvelope(append(append(p, h...), blocks...))
	}
	flipIn := func(body []byte, i int) []byte {
		b := append([]byte(nil), body...)
		b[i] ^= 0x01
		return b
	}
	flip := func(i int) []byte { return flipIn(valid, i) }
	// The same checksum, its hex digits in upper case.
	sumAt := trailer + len("\n%PDMF1 crc32c=")
	upperSum := append([]byte(nil), valid...)
	copy(upperSum[sumAt:], bytes.ToUpper(valid[sumAt:sumAt+8]))
	// The previous encoding is accepted
	// (TestPreviousColumnarUploadIsStoredReencoded) without a canonical check,
	// so a damaged one must fall to the checksum, the structural decode or
	// Validate. The rows of this trial are all one-valued, so its %PDMFCOL4
	// payload is its current one behind the previous magic.
	as := func(magic string) func(payload []byte) []byte {
		return func(payload []byte) []byte {
			return wrapEnvelope(append([]byte(magic), payload[colMagic:]...))
		}
	}
	prev := as("%PDMFCOL4\n")
	validPrev := prev(payload)
	cols, err := perfdmf.ColumnsFromTrial(tr)
	if err != nil {
		t.Fatal(err)
	}
	prevHeader := jsonHeader(cols)
	col3Payload := columnarCol3(prevHeader, payload)
	// Inclusive without exclusive fails Validate, and the encoders refuse to
	// write it. The payload is the valid one with the bit of event 0 cleared
	// in column 0's exclusive bitmap, which follows the calls block (two
	// one-valued rows of 3 bytes) and that column's inclusive bitmap.
	const excBitmap = 2*3 + 1
	invalid := append([]byte(nil), payload...)
	invalid[len(payload)-len(blocks)+excBitmap] &^= 1
	if _, err := perfdmf.DecodeTrial(wrapEnvelope(invalid)); err == nil || !strings.Contains(err.Error(), "inclusive but no exclusive") {
		t.Fatalf("clearing the exclusive presence bit of event 0 in column 0: %v", err)
	}
	invalidCol3 := columnarCol3(prevHeader, invalid)
	// The encodings before that are refused whatever follows their magic.
	retired, col2 := as("%PDMFCOL1\n"), as("%PDMFCOL2\n")
	validV1, validCol2, validCol3 := retired(col3Payload), col2(col3Payload), wrapEnvelope(col3Payload)
	// A row of 1 and 2, an offset row in the current encoding, in the
	// previous one, which has no such kind: the calls row of "main" respelled.
	offsetRow := append(append([]byte(nil), payload[:colMagic+4+hlen]...), 0x21, 1, 0, 1)
	offsetRow = append(offsetRow, blocks[3:]...)
	// Checksummed, structurally decodable and Validate-clean, yet not the
	// pivot of the trial held: only the decoder's pivot check refuses these.
	// The perfdmf tests write them (TestNonPivotFixtures).
	nonPivot := func(file string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"truncated envelope", valid[:len(valid)-tail/2]},
		{"truncated to half", valid[:len(valid)/2]},
		{"flipped payload bit", flip(head + len(payload)/2)},
		{"flipped CRC digit", flip(trailer + len("\n%PDMF1 crc32c=") + 3)},
		{"dimension-inflated header", withHeader(respell(binary.AppendUvarint(nil, 2000000000)...))},
		{"trailing bytes in payload", wrapEnvelope(append(append([]byte(nil), payload...), 0, 0))},
		{"trailing bytes after envelope", append(append([]byte(nil), valid...), "junk"...)},
		{"non-canonical header JSON", withHeader(prevHeader)}, // the previous version's header behind the current magic
		{"non-minimal varint in the header", withHeader(respell(0x82, 0x00))},
		{"literal repeating a table entry", withHeader(strings.Replace(header, "\x00\x03exp", "\x00\x03app", 1))},
		{"trial JSON under the encoded media type", mustJSON(t, tr)},
		{"body over -max-body", append(append([]byte(nil), valid...), make([]byte, 64<<10)...)},
		{"over-wide row", wrapEnvelope(overwide(payload, colMagic+4+hlen))},
		{"%PDMFCOL1 with a flipped bit", flipIn(validV1, head+len(validV1)/2)},
		{"%PDMFCOL1 with a bad CRC", flipIn(validV1, bytes.LastIndex(validV1, []byte("\n%PDMF1 crc32c="))+len("\n%PDMF1 crc32c=")+3)},
		{"%PDMFCOL1 holding an invalid trial", retired(invalidCol3)},
		{"%PDMFCOL1, well-formed", validV1},
		{"%PDMFCOL2 with a flipped bit", flipIn(validCol2, head+len(validCol2)/2)},
		{"%PDMFCOL2 with a bad CRC", flipIn(validCol2, bytes.LastIndex(validCol2, []byte("\n%PDMF1 crc32c="))+len("\n%PDMF1 crc32c=")+3)},
		{"%PDMFCOL2 holding an invalid trial", col2(invalidCol3)},
		{"%PDMFCOL2 with the row kinds of %PDMFCOL3", validCol2},
		{"%PDMFCOL3 with a flipped bit", flipIn(validCol3, head+len(validCol3)/2)},
		{"%PDMFCOL3 with a bad CRC", flipIn(validCol3, bytes.LastIndex(validCol3, []byte("\n%PDMF1 crc32c="))+len("\n%PDMF1 crc32c=")+3)},
		{"%PDMFCOL3 holding an invalid trial", wrapEnvelope(invalidCol3)},
		{"%PDMFCOL3, well-formed", validCol3},
		{"%PDMFCOL4 with a flipped bit", flipIn(validPrev, head+len(validPrev)/2)},
		{"%PDMFCOL4 with a bad CRC", flipIn(validPrev, bytes.LastIndex(validPrev, []byte("\n%PDMF1 crc32c="))+len("\n%PDMF1 crc32c=")+3)},
		{"%PDMFCOL4 holding an invalid trial", prev(invalid)},
		{"%PDMFCOL4 with an offset row", prev(offsetRow)},
		{"trailer in upper-case hex", upperSum},
		{"trailer with a signed length", []byte(strings.Replace(string(valid), " len=", " len=+", 1))},
		{"columns not in pivot order", nonPivot("col5_nonpivot.pdmf")},
		{"registered metric without a column", nonPivot("col5_nonpivot_nocolumn.pdmf")},
		{"values under a clear presence bit", nonPivot("col5_nonpivot_ghost.pdmf")},
	}
	if !strings.HasPrefix(header, "\x00\x03app\x00\x03exp\x00\x02t1\x02") || blocks[0] != 0x12 {
		t.Fatalf("header or calls-row layout changed, the table needs updating: %q, kind %#x", header, blocks[0])
	}
	if bytes.Equal(upperSum, valid) {
		t.Fatalf("the checksum %s has no letter to respell; pick another trial", valid[sumAt:sumAt+8])
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newEncodedService(t, Config{MaxBodyBytes: int64(len(validPrev)) + 1024})
			hdr := map[string]string{"Content-Type": dmfwire.TrialContentType, dmfwire.HeaderIdempotencyKey: "hostile-" + strconv.Itoa(i)}
			status, _, body := s.request(t, "POST", "/api/v1/trials", hdr, tc.body)
			if want := http.StatusBadRequest; status != want && !(tc.name == "body over -max-body" && status == http.StatusRequestEntityTooLarge) {
				t.Fatalf("HTTP %d: %s; want %d", status, body, want)
			}
			if files := storedFiles(t, s.dir); len(files) != 0 {
				t.Fatalf("rejected upload left files: %v", files)
			}
			m, err := s.c.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			if m.Counters["store_quarantined"] != 0 || m.Counters["uploads_stored_total"] != 0 {
				t.Fatalf("rejected upload counted: quarantined=%d stored=%d", m.Counters["store_quarantined"], m.Counters["uploads_stored_total"])
			}
			// No idempotency entry: the same key with a good body stores.
			status, _, body = s.request(t, "POST", "/api/v1/trials", hdr, valid)
			if status != http.StatusCreated {
				t.Fatalf("good body under the rejected upload's key: HTTP %d: %s", status, body)
			}
			if m, _ := s.c.Metrics(); m.Counters["idempotent_replays_total"] != 0 {
				t.Fatal("the rejection was recorded under its idempotency key and replayed")
			}
		})
	}
}

// overwide rewrites the first row of the calls block, which starts at off —
// one call count on every thread, stored as that one value in 2 bytes — with
// the value in 3: every bit intact, the checksum recomputed by the caller,
// only the width rule broken.
func overwide(payload []byte, off int) []byte {
	out := append([]byte(nil), payload[:off]...)
	out = append(out, payload[off]+1, payload[off+1], payload[off+2], 0)
	return append(out, payload[off+3:]...)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// --- (c) faults on an encoded get ------------------------------------------

// A cut or dribbled encoded response is a transport fault: the client
// retries and succeeds, and a cut that outlasts the retries surfaces as a
// transport error — never as ErrCorrupt, which would claim the stored
// trial is damaged.
func TestEncodedGetUnderFaults(t *testing.T) {
	tr := stallTrial("app", "exp", "t1")
	for i := 0; i < 200; i++ { // large enough to span many writes when dribbled
		e := tr.EnsureEvent("filler_" + strconv.Itoa(i))
		e.SetValue(perfdmf.TimeMetric, 0, float64(i), float64(i))
	}
	isGet := func(method, path string) bool { return method == "GET" && strings.HasPrefix(path, "/api/v1/apps/") }
	fast := dmfclient.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}

	t.Run("scripted", func(t *testing.T) {
		inj := &funcInjector{decide: func(method, path string, attempt int) faults.Decision {
			switch {
			case !isGet(method, path):
				return faults.Decision{}
			case attempt == 0:
				return faults.Decision{Kind: faults.Truncate, TruncateAfter: 5000}
			case attempt == 1:
				return faults.Decision{Kind: faults.Truncate, TruncateAfter: 3} // inside the magic
			case attempt == 2:
				return faults.Decision{Kind: faults.SlowBody, ChunkSize: 4096, Delay: 100 * time.Microsecond}
			}
			return faults.Decision{}
		}}
		s := newEncodedService(t, Config{FaultInjector: inj}, dmfclient.WithRetryPolicy(fast))
		if err := s.repo.Save(tr); err != nil {
			t.Fatal(err)
		}
		got, err := s.c.GetTrialContext(context.Background(), "app", "exp", "t1")
		if err != nil {
			t.Fatalf("get under truncate, truncate, slow body: %v", err)
		}
		if trialDump(got) != trialDump(tr) {
			t.Fatal("trial differs after retried get")
		}
		if st := s.c.Stats(); st.Retries != 2 {
			t.Fatalf("retries = %d, want 2 (two truncations)", st.Retries)
		}
	})

	t.Run("seeded schedule", func(t *testing.T) {
		// The schedule dribbles in chunks of at most 16 bytes, so this one
		// fetches the small trial.
		tr := stallTrial("app", "exp", "t1")
		inj := faults.NewSchedule(faults.Options{Seed: 12, Rate: 0.5, MaxDelay: 100 * time.Microsecond,
			Kinds: []faults.Kind{faults.Truncate, faults.SlowBody}})
		s := newEncodedService(t, Config{FaultInjector: inj}, dmfclient.WithRetryPolicy(fast))
		if err := s.repo.Save(tr); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			got, err := s.c.GetTrialContext(context.Background(), "app", "exp", "t1")
			if err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if trialDump(got) != trialDump(tr) {
				t.Fatalf("get %d: trial differs", i)
			}
		}
		if inj.Total() == 0 || s.c.Stats().Retries == 0 {
			t.Fatalf("schedule injected %d faults, client retried %d times: the test proved nothing", inj.Total(), s.c.Stats().Retries)
		}
	})

	t.Run("always cut", func(t *testing.T) {
		inj := &funcInjector{decide: func(method, path string, attempt int) faults.Decision {
			if isGet(method, path) {
				return faults.Decision{Kind: faults.Truncate, TruncateAfter: 5000}
			}
			return faults.Decision{}
		}}
		s := newEncodedService(t, Config{FaultInjector: inj}, dmfclient.WithRetryPolicy(fast))
		if err := s.repo.Save(tr); err != nil {
			t.Fatal(err)
		}
		_, err := s.c.GetTrialContext(context.Background(), "app", "exp", "t1")
		if err == nil || errors.Is(err, perfdmf.ErrCorrupt) || errors.Is(err, perfdmf.ErrNotFound) {
			t.Fatalf("get with every response cut: %v; want a transport error", err)
		}
		if st := s.c.Stats(); st.Attempts != 4 {
			t.Fatalf("attempts = %d, want all 4", st.Attempts)
		}
		if q, _, _ := s.repo.StoreStats(); q != 0 {
			t.Fatal("a cut response quarantined the stored file")
		}
	})
}

// --- (d) legacy read-compat through the service -----------------------------
//
// A %PDMFCOL4 file, as the previous release wrote it, is served in both
// representations and upgraded by its next save; trial JSON, bare or in the
// envelope, is forms back: the read is a 500 that says which release
// still rewrites it, and the file is set aside intact.
func TestLegacyFilesThroughService(t *testing.T) {
	dir := t.TempDir()
	prev, err := os.ReadFile(filepath.Join("..", "perfdmf", "testdata", "col4_sparse.pdmf"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := perfdmf.DecodeTrial(prev) // app/exp/sparse
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, _ := json.MarshalIndent(stallTrial("app", "exp", "plain"), "", " ")
	wrappedJSON, _ := json.MarshalIndent(stallTrial("app", "exp", "wrapped"), "", " ")
	retired := map[string][]byte{"plain": plainJSON, "wrapped": wrapEnvelope(wrappedJSON)}
	if err := os.MkdirAll(filepath.Join(dir, "app", "exp"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"sparse": prev, "plain": retired["plain"], "wrapped": retired["wrapped"]} {
		if err := os.WriteFile(filepath.Join(dir, "app", "exp", name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newEncodedServiceAt(t, dir, Config{})

	canon, _ := perfdmf.EncodeTrial(want)
	status, hdr, body := s.request(t, "GET", trialURL(want), map[string]string{"Accept": dmfwire.TrialContentType}, nil)
	if status != http.StatusOK || hdr.Get("Content-Type") != dmfwire.TrialContentType || !bytes.Equal(body, canon) {
		t.Fatalf("encoded get: HTTP %d, %q, canonical=%v", status, hdr.Get("Content-Type"), bytes.Equal(body, canon))
	}
	status, _, body = s.request(t, "GET", trialURL(want), nil, nil)
	var got perfdmf.Trial
	if status != http.StatusOK || json.Unmarshal(body, &got) != nil || trialDump(&got) != trialDump(want) {
		t.Fatalf("JSON get: HTTP %d", status)
	}
	file := filepath.Join(dir, "app", "exp", "sparse.json")
	if data, _ := os.ReadFile(file); !bytes.Equal(data, prev) {
		t.Fatal("a read rewrote the legacy file")
	}
	if err := s.c.SaveContext(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(file); !bytes.Equal(data, canon) {
		t.Fatal("the next save did not upgrade the file")
	}

	accept := map[string]string{"plain": dmfwire.TrialContentType, "wrapped": "application/json"}
	for name, data := range retired {
		status, _, body := s.request(t, "GET", "/api/v1/apps/app/experiments/exp/trials/"+name, map[string]string{"Accept": accept[name]}, nil)
		if status != http.StatusInternalServerError || !strings.Contains(string(body), "-fsck` of the previous release") {
			t.Errorf("%s: HTTP %d %s; want 500 naming the previous release's -fsck", name, status, body)
		}
		aside, err := os.ReadFile(filepath.Join(dir, "app", "exp", name+".json.corrupt"))
		if err != nil || !bytes.Equal(aside, data) {
			t.Errorf("%s: not set aside byte for byte: %v", name, err)
		}
	}
	rep, err := s.c.FsckContext(context.Background())
	if err != nil || rep.Trials != 1 || rep.Legacy != 0 || len(rep.Quarantined) != 2 || rep.Clean() {
		t.Fatalf("fsck = %+v, %v; want 1 trial, none legacy, the two JSON files quarantined", rep, err)
	}
}

// --- negotiation ------------------------------------------------------------

func TestTrialContentNegotiation(t *testing.T) {
	s := newEncodedService(t, Config{})
	tr := stallTrial("app", "exp", "t1")
	if err := s.c.SaveContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	encoded := func(accept string) bool {
		t.Helper()
		hdr := map[string]string{}
		if accept != "" {
			hdr["Accept"] = accept
		}
		status, h, _ := s.request(t, "GET", trialURL(tr), hdr, nil)
		if status != http.StatusOK {
			t.Fatalf("Accept %q: HTTP %d", accept, status)
		}
		return h.Get("Content-Type") == dmfwire.TrialContentType
	}
	for accept, want := range map[string]bool{
		"":                       false,
		"*/*":                    false,
		"application/json":       false,
		dmfwire.TrialContentType: true,
		"application/json, " + dmfwire.TrialContentType + ";q=0.9": true,
		strings.ToUpper(dmfwire.TrialContentType):                  true,
	} {
		if got := encoded(accept); got != want {
			t.Errorf("Accept %q: encoded response = %v, want %v", accept, got, want)
		}
	}
	// The retired query-param route does not negotiate: it is gone.
	if status, _, _ := s.request(t, "GET", "/api/v1/trial?app=app&experiment=exp&trial=t1", map[string]string{"Accept": dmfwire.TrialContentType}, nil); status != http.StatusNotFound {
		t.Errorf("retired query-param route: HTTP %d, want 404", status)
	}
	// An encoded upload with a format parameter is still an encoded upload.
	body, _ := perfdmf.EncodeTrial(stallTrial("app", "exp", "t2"))
	status, _, resp := s.request(t, "POST", "/api/v1/trials?format=json", map[string]string{"Content-Type": dmfwire.TrialContentType + "; charset=binary"}, body)
	if status != http.StatusCreated {
		t.Errorf("encoded upload with parameters: HTTP %d: %s", status, resp)
	}
}
