package cluster

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
	"perfknow/internal/vfs"
)

// A simCluster is n real perfdmfd services — repository, gossip agent and
// dmfserver handler each — wired together in one goroutine: every peer
// request is handed to the target member's handler by an in-process
// RoundTripper, the agents read a virtual clock, and every fan-out runs its
// calls one at a time in an order drawn from the seed. No loop runs on its
// own; the test drives gossipTick, repairTick and the store operations as
// steps, so one seed gives one history, byte for byte.
type simCluster struct {
	t    *testing.T
	clk  *fakeClock
	rng  *rand.Rand
	desc dmfwire.Ring

	members map[string]*simMember // by URL
	urls    []string              // canonical order
	store   *ShardedStore

	// log is the history's event log: operations and their outcomes, the
	// store's cluster events and every agent log line, without timestamps.
	log    strings.Builder
	logger *slog.Logger

	// afterRequest, when set, runs after every request a member serves.
	afterRequest func()
}

// simMember is one daemon. While down, requests to it fail as a refused
// connection would. killIn counts down on each trial upload; the upload
// that reaches zero is cut off mid-body and takes the member down.
type simMember struct {
	url, dir, hintsDir string
	repo               *perfdmf.Repository
	agent              *Agent
	handler            http.Handler
	down               bool
	killIn             int
}

// simProbe is the probe interval the virtual clock advances per gossip
// round; suspicion needs 2 misses and lasts 4 rounds.
const simProbe = time.Second

// newSimCluster boots n members over one ring; replicas is R.
func newSimCluster(t *testing.T, seed uint64, n, replicas int) *simCluster {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://m%d.sim", i)
	}
	c := newSimNet(t, seed, dmfwire.Ring{Epoch: 1, Replicas: replicas, VNodes: 64, Seed: 42, Peers: urls})
	for _, u := range urls {
		c.start(u, c.desc, nil)
	}
	store, err := New(c.desc, c.backends(c.desc.Peers), WithTracer(c.tracer()),
		WithBackendFactory(func(peer string) (Backend, error) { return c.client(peer) }))
	if err != nil {
		t.Fatal(err)
	}
	store.env = c.env()
	c.store = store
	return c
}

// newSimNet is the empty network: clock, seed and log, no members yet.
func newSimNet(t *testing.T, seed uint64, desc dmfwire.Ring) *simCluster {
	c := &simCluster{
		t:       t,
		clk:     &fakeClock{t: time.Unix(1_000_000, 0)},
		rng:     rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		desc:    desc.Canonical(),
		members: make(map[string]*simMember),
		urls:    desc.Canonical().Peers,
	}
	c.logger = slog.New(slog.NewTextHandler(&c.log, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
	return c
}

// env is the seam filled for replay: the virtual clock (a wait advances
// it), the seeded source, the sequential fan-out and in-process dialing.
func (c *simCluster) env() env {
	return env{
		now: c.clk.now,
		after: func(d time.Duration) <-chan time.Time {
			c.clk.advance(d)
			fired := make(chan time.Time, 1)
			fired <- c.clk.now()
			return fired
		},
		rand:   c.rng,
		fanout: c.fanout,
		dial:   func(peer string) (AgentPeer, error) { return c.client(peer) },
		fs:     noSyncFS{},
	}
}

// fanout runs the calls on the caller's goroutine in a seed-chosen order;
// stopping early means the rest are never made.
func (c *simCluster) fanout(ctx context.Context, n int, call func(context.Context, int), next func(int) bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, i := range c.rng.Perm(n) {
		call(ctx, i)
		if next != nil && !next(i) {
			return
		}
	}
}

// tracer records the store's cluster events into the log.
func (c *simCluster) tracer() *obs.Tracer {
	tr := obs.NewTracer()
	tr.OnEvent(func(ev obs.Event) {
		keys := make([]string, 0, len(ev.Attrs))
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&c.log, "event %s", ev.Name)
		for _, k := range keys {
			fmt.Fprintf(&c.log, " %s=%s", k, ev.Attrs[k])
		}
		fmt.Fprintf(&c.log, " err=%v\n", ev.Err)
	})
	return tr
}

// client is a one-attempt dmfclient over the in-process network.
func (c *simCluster) client(peer string) (*dmfclient.Client, error) {
	return dmfclient.New(peer, dmfclient.WithTransport(simTransport{c}), dmfclient.WithRetryPolicy(dmfclient.RetryPolicy{MaxAttempts: 1}))
}

func (c *simCluster) backends(peers []string) map[string]Backend {
	out := make(map[string]Backend, len(peers))
	for _, p := range peers {
		b, err := c.client(p)
		if err != nil {
			c.t.Fatal(err)
		}
		out[p] = b
	}
	return out
}

// start boots (or restarts) the member at url over its directories, as a
// fresh process would: the repository is reopened, a new agent reads the
// hints left on disk, and a new server takes the member's requests.
func (c *simCluster) start(url string, ring dmfwire.Ring, seeds []string) *simMember {
	c.t.Helper()
	m := c.members[url]
	if m == nil {
		dir := c.t.TempDir()
		m = &simMember{url: url, dir: filepath.Join(dir, "repo"), hintsDir: filepath.Join(dir, "hints")}
		c.members[url] = m
	}
	repo, err := perfdmf.OpenRepositoryFS(m.dir, noSyncFS{})
	if err != nil {
		c.t.Fatal(err)
	}
	agent, err := newAgent(AgentConfig{
		Self:           url,
		Ring:           ring,
		SeedPeers:      seeds,
		ProbeInterval:  simProbe,
		SuspectAfter:   2,
		SuspectTimeout: 4 * simProbe,
		RepairInterval: 5 * simProbe,
		HintsDir:       m.hintsDir,
		Logger:         c.logger.With("member", url),
	}, c.env())
	if err != nil {
		c.t.Fatal(err)
	}
	srv, err := dmfserver.New(dmfserver.Config{
		Repo:     repo,
		RulesDir: filepath.Join("..", "..", "assets", "rules"),
		Node:     agent,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		c.t.Fatal(err)
	}
	m.repo, m.agent, m.handler, m.down = repo, agent, srv.Handler(), false
	return m
}

// kill takes a member down; restart brings it back as a new process.
func (c *simCluster) kill(url string) { c.members[url].down = true }

func (c *simCluster) restart(url string) { c.start(url, c.desc, nil) }

// live lists the members that are up, in URL order.
func (c *simCluster) live() []*simMember {
	var out []*simMember
	for _, u := range c.urls {
		if m := c.members[u]; !m.down {
			out = append(out, m)
		}
	}
	return out
}

// gossipRound advances the clock one probe interval and runs one gossip
// tick on every live member, in a seed-chosen order.
func (c *simCluster) gossipRound() {
	c.clk.advance(simProbe)
	live := c.live()
	for _, i := range c.rng.Perm(len(live)) {
		live[i].agent.gossipTick(context.Background())
	}
}

// repairRound runs one repair tick on every live member; only the leader
// does anything.
func (c *simCluster) repairRound() {
	for _, m := range c.live() {
		m.agent.repairTick(context.Background())
	}
}

// until runs rounds of step until cond holds, failing after max rounds.
func (c *simCluster) until(max int, msg string, step func(), cond func() bool) {
	c.t.Helper()
	for i := 0; i < max; i++ {
		if cond() {
			return
		}
		step()
	}
	if !cond() {
		c.t.Fatalf("after %d rounds: %s", max, msg)
	}
}

// holders lists, in URL order, the live members whose repository holds the
// trial.
func (c *simCluster) holders(tr *perfdmf.Trial) []string {
	var out []string
	for _, m := range c.live() {
		if slices.Contains(m.repo.Trials(tr.App, tr.Experiment), tr.Name) {
			out = append(out, m.url)
		}
	}
	return out
}

// simTransport hands a request to the member its host names, on the
// caller's goroutine.
type simTransport struct{ c *simCluster }

func (st simTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	m := st.c.members["http://"+req.URL.Host]
	if m == nil || m.down {
		return nil, fmt.Errorf("dial %s: connection refused", req.URL.Host)
	}
	if req.Method == http.MethodPost && req.URL.Path == "/api/v1/trials" && m.killIn > 0 {
		if m.killIn--; m.killIn == 0 {
			var partial [64]byte
			_, _ = io.ReadFull(req.Body, partial[:])
			m.down = true
			return nil, fmt.Errorf("read %s: connection reset by peer", req.URL.Host)
		}
	}
	sreq := req.Clone(req.Context())
	sreq.Host, sreq.RemoteAddr, sreq.RequestURI = req.URL.Host, "192.0.2.1:7360", req.URL.RequestURI()
	rec := httptest.NewRecorder()
	m.handler.ServeHTTP(rec, sreq)
	if st.c.afterRequest != nil {
		st.c.afterRequest()
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// noSyncFS is the operating system's filesystem without fsync: the files
// are real and byte-identical to what vfs.OS writes, only not durable —
// which a simulated crash does not need.
type noSyncFS struct{ vfs.OS }

func (noSyncFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(path, data, perm)
}

func (noSyncFS) SyncDir(string) error { return nil }
