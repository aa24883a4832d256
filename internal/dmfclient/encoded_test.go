package dmfclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"perfknow/internal/dmfwire"
	"perfknow/internal/perfdmf"
)

// TestSaveAndGetSpeakTheEncodedForm pins the wire: uploads (plain and
// hinted) post the encoded trial under its media type, gets ask for it by
// name, and the body on the wire is exactly perfdmf.EncodeTrial's output.
func TestSaveAndGetSpeakTheEncodedForm(t *testing.T) {
	want, err := perfdmf.EncodeTrial(minimalTrial())
	if err != nil {
		t.Fatal(err)
	}
	type seen struct {
		method, contentType, accept, hintFor string
		body                                 []byte
	}
	var (
		mu   sync.Mutex
		reqs []seen
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		reqs = append(reqs, seen{r.Method, r.Header.Get("Content-Type"), r.Header.Get("Accept"), r.Header.Get(dmfwire.HeaderHintFor), body})
		mu.Unlock()
		if r.Method == http.MethodGet {
			w.Header().Set("Content-Type", dmfwire.TrialContentType)
			_, _ = w.Write(want)
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	c, err := New(ts.URL, fastRetry(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.SaveContext(ctx, minimalTrial()); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveHintedContext(ctx, minimalTrial(), "http://owner:1"); err != nil {
		t.Fatal(err)
	}
	// Hint replay: the encoded form, and the trial JSON older daemons put
	// in their hints, each under its own media type.
	legacyHint, _ := json.Marshal(minimalTrial())
	if err := c.SaveTrialBody(ctx, want); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveTrialBody(ctx, legacyHint); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetTrialContext(ctx, "a", "e", "t")
	if err != nil {
		t.Fatal(err)
	}
	if got.Event("main").Inclusive[perfdmf.TimeMetric][0] != 10 {
		t.Fatal("decoded trial lost its data")
	}

	expect := []seen{
		{http.MethodPost, dmfwire.TrialContentType, "", "", want},
		{http.MethodPost, dmfwire.TrialContentType, "", "http://owner:1", want},
		{http.MethodPost, dmfwire.TrialContentType, "", "", want},
		{http.MethodPost, "application/json", "", "", legacyHint},
		{http.MethodGet, "", dmfwire.TrialContentType, "", nil},
	}
	if len(reqs) != len(expect) {
		t.Fatalf("requests = %d, want %d", len(reqs), len(expect))
	}
	for i, e := range expect {
		g := reqs[i]
		if g.method != e.method || g.contentType != e.contentType || g.accept != e.accept || g.hintFor != e.hintFor || !bytes.Equal(g.body, e.body) {
			t.Errorf("request %d = %s Content-Type %q Accept %q hint %q (%d body bytes); want %s %q %q %q (%d bytes)",
				i, g.method, g.contentType, g.accept, g.hintFor, len(g.body), e.method, e.contentType, e.accept, e.hintFor, len(e.body))
		}
	}
}

// A trial is read in its encoded form only. A 2xx trial body of another
// media type — trial JSON from a daemon that predates the media type and
// ignores Accept — is a decode fault, retried like a garbled body, and never
// ErrCorrupt or ErrNotFound.
func TestGetTrialReadsJSONOnlyServer(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(minimalTrial())
	}))
	defer ts.Close()
	c, err := New(ts.URL, fastRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GetTrialContext(context.Background(), "a", "e", "t")
	if err == nil || !strings.Contains(err.Error(), `trial body of media type "application/json"`) ||
		errors.Is(err, perfdmf.ErrCorrupt) || errors.Is(err, perfdmf.ErrNotFound) {
		t.Fatalf("get from a JSON-only server = %v, %v; want a decode fault", got, err)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("the JSON body was fetched %d times, want 3 (retried)", n)
	}
}

// A 2xx whose encoded body fails its checksum or decode — cut cleanly by a
// proxy, a flipped bit — is a retryable transport fault like a garbled
// JSON body. When it outlasts the retries the caller gets a transport
// error: never ErrCorrupt, which means the STORED trial is damaged.
func TestGarbledEncodedBodyIsATransportFault(t *testing.T) {
	good, err := perfdmf.EncodeTrial(minimalTrial())
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	garbled := [][]byte{good[:len(good)/2], flipped, good[:len(good)-3], nil}

	for _, heal := range []bool{true, false} {
		var hits atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", dmfwire.TrialContentType)
			n := int(hits.Add(1)) - 1
			if heal && n >= len(garbled) {
				_, _ = w.Write(good)
				return
			}
			_, _ = w.Write(garbled[n%len(garbled)])
		}))
		c, err := New(ts.URL, fastRetry(len(garbled)+1))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.GetTrialContext(context.Background(), "a", "e", "t")
		ts.Close()
		if heal {
			if err != nil || got.Name != "t" {
				t.Fatalf("get that heals on attempt %d: %v", len(garbled)+1, err)
			}
			if n := int(hits.Load()); n != len(garbled)+1 {
				t.Errorf("attempts = %d, want %d", n, len(garbled)+1)
			}
			continue
		}
		if err == nil || errors.Is(err, perfdmf.ErrCorrupt) {
			t.Fatalf("get that never heals: err = %v; want a transport error that is not ErrCorrupt", err)
		}
		if n := int(hits.Load()); n != len(garbled)+1 {
			t.Errorf("attempts = %d, want all %d", n, len(garbled)+1)
		}
	}
}

// A raw body over its limit is an error, not a silently shortened result.
func TestOversizedRawBodyFails(t *testing.T) {
	for _, tc := range []struct {
		size int
		ok   bool
	}{{maxControlBody, true}, {maxControlBody + 1, false}} {
		if _, err := readBody(io.LimitReader(zeros{}, int64(tc.size)), maxControlBody); (err == nil) != tc.ok {
			t.Errorf("readBody of %d bytes under a %d limit: err = %v", tc.size, maxControlBody, err)
		}
	}
	// Through the client: a ring descriptor padded past the control limit
	// used to come back cut to 1 MiB and then fail its checksum with a
	// misleading message; now the read itself fails, naming the limit.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", dmfwire.RingContentType)
		_, _ = io.Copy(w, io.LimitReader(zeros{}, maxControlBody+1))
	}))
	defer ts.Close()
	c, err := New(ts.URL, fastRetry(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ClusterRing(context.Background()); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized ring body: err = %v; want the limit named", err)
	}
	if maxControlBody >= dmfwire.MaxTrialBody {
		t.Fatal("trial bodies must get the large limit, control bodies the small one")
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// The default transport keeps enough idle connections per host that a
// second wave of concurrent callers reuses the first wave's connections
// instead of dialing again (net/http's default keeps two).
func TestDefaultTransportReusesConnections(t *testing.T) {
	const callers = 8
	var (
		opened  atomic.Int32
		arrived atomic.Int32
		mu      sync.Mutex
		release = make(chan struct{})
	)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold every request of a wave until all have arrived, so the wave
		// really needs `callers` connections at once.
		mu.Lock()
		ch := release
		if arrived.Add(1)%callers == 0 {
			close(release)
			release = make(chan struct{})
		}
		mu.Unlock()
		<-ch
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c, err := New(ts.URL, fastRetry(1))
	if err != nil {
		t.Fatal(err)
	}
	wave := func() int32 {
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.Health(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return opened.Load()
	}
	first := wave()
	second := wave()
	if first != callers {
		t.Fatalf("first wave opened %d connections, want %d", first, callers)
	}
	if second != first {
		t.Fatalf("second wave opened %d more connections; the idle pool should have served all %d callers", second-first, callers)
	}
	// WithTransport still overrides the default.
	custom := &http.Transport{}
	c2, err := New(ts.URL, WithTransport(custom))
	if err != nil {
		t.Fatal(err)
	}
	if c2.http.Transport != custom {
		t.Fatal("WithTransport did not replace the default transport")
	}
}
