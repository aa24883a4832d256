// Command perfdmfd serves a PerfDMF profile repository and the
// PerfExplorer analysis stack over HTTP/JSON, so many clients can share
// one repository: uploading trials (native JSON, TAU text, gprof),
// browsing the Application → Experiment → Trial hierarchy, running
// analysis operations and rule-based diagnosis server-side.
//
// Usage:
//
//	perfdmfd -repo DIR [-addr HOST:PORT] [-j N] [flags]
//
// The daemon answers GET /healthz for liveness probes, GET /api/v1/metrics
// with a typed telemetry snapshot (counters, gauges, latency histograms)
// and GET /api/v1/traces with recent request traces. With -debug-addr a
// second listener serves Go's net/http/pprof profiler, kept off the public
// API address. On SIGINT/SIGTERM the daemon stops accepting connections and
// drains in-flight requests for up to -drain before exiting. With -addr
// ending in ":0" the kernel picks a free port; -addr-file writes the bound
// address to a file so scripts and tests can find the server.
//
// With -fsck the daemon does not serve at all: it verifies the repository
// (recovering orphaned temp files, quarantining corrupt trial files and
// valid ones at another trial's path, rewriting files in the previous
// payload version), prints the fsck report as JSON on stdout, and exits 0 if
// the store is clean or 1 otherwise — the offline twin of GET /api/v1/fsck.
//
// Streaming ingestion: POST /api/v1/streams opens a chunked upload whose
// seal stores a trial byte-identical to a whole-file upload; while chunks
// arrive, standing diagnoses (rule files named per-open or defaulted by
// -standing-rules) analyze a sliding window of -stream-window chunks and
// fire alerts over SSE at GET /api/v1/streams/{id}/alerts. See
// docs/STREAMING.md.
//
// With -peers the daemon joins a cluster: every member is started with
// the same -peers/-replicas/-ring-epoch/-vnodes/-ring-seed, serves its
// current ring descriptor at GET /api/v1/cluster, and publishes cluster_*
// gauges in /api/v1/metrics. Every member runs a gossip agent that probes
// its peers every -probe-interval, marks them suspect after -suspect-after
// missed probes and dead after -suspect-timeout of suspicion, accepts
// hinted writes (durable IOUs kept under -hints-dir and replayed when the
// owner returns), adopts ring epoch bumps announced to ANY member
// (POST /api/v1/cluster) without a restart, and — on the lowest-URL alive
// member — runs an anti-entropy repair pass every -repair-interval that
// restores the replication factor after permanent node loss. -seed-peers
// adds gossip contacts beyond the ring (how a freshly configured member
// finds a running cluster). See docs/CLUSTER.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"perfknow/internal/cluster"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main with injectable arguments, streams and a readiness hook, for
// testing. ready (when non-nil) receives the bound address once the
// listener is open.
// options holds what the flags set.
type options struct {
	addr, addrFile, debugAddr, debugFile string
	repoDir, rulesDir                    string
	jobs                                 int
	maxBody                              int64
	timeout, drain, admission            time.Duration
	fsck                                 bool
	streamWindow                         int
	standingRules                        string

	peers, self, seedPeers, hintsDir string
	replicas, vnodes, suspectAfter   int
	ringEpoch, ringSeed              uint64
	probeInterval, suspectFor        time.Duration
	repairEvery, repairPause         time.Duration
}

// newFlagSet registers every flag of the command on o. run parses it; the
// documentation test walks it.
func newFlagSet(o *options, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("perfdmfd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7360", "listen address (use :0 for an ephemeral port)")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound address to this file once listening")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	fs.StringVar(&o.debugFile, "debug-addr-file", "", "write the bound debug address to this file once listening")
	fs.StringVar(&o.repoDir, "repo", "perfdata", "profile repository directory")
	fs.StringVar(&o.rulesDir, "rules", "", "directory holding .prl rule files (default: built-in knowledge base)")
	fs.IntVar(&o.jobs, "j", 0, "max concurrent analysis/diagnosis requests, each one goroutine of analysis (0 = GOMAXPROCS)")
	fs.Int64Var(&o.maxBody, "max-body", dmfserver.DefaultMaxBodyBytes, "max request body bytes")
	fs.DurationVar(&o.timeout, "timeout", dmfserver.DefaultRequestTimeout, "per-request time budget")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown drain window")
	fs.DurationVar(&o.admission, "admission-wait", dmfserver.DefaultAdmissionWait,
		"how long a request may wait for an analysis slot before being shed with 429 (negative = shed immediately)")
	fs.BoolVar(&o.fsck, "fsck", false,
		"verify the repository (recover temp files, quarantine corrupt trials), print the report as JSON and exit: 0 if clean, 1 otherwise")
	fs.IntVar(&o.streamWindow, "stream-window", dmfserver.DefaultStreamWindow,
		"default sliding-window size in chunks for standing stream analysis (0 = cumulative; streams may override per-open)")
	fs.StringVar(&o.standingRules, "standing-rules", "",
		"comma-separated .prl rule names (built-in, or under -rules) registered as standing diagnoses on every stream that names none")
	fs.StringVar(&o.peers, "peers", "",
		"comma-separated base URLs of every cluster member (including this one); empty = standalone")
	fs.IntVar(&o.replicas, "replicas", 2, "cluster replication factor R (with -peers)")
	fs.Uint64Var(&o.ringEpoch, "ring-epoch", 1, "cluster membership epoch; bump when -peers changes (with -peers)")
	fs.IntVar(&o.vnodes, "vnodes", 64, "virtual nodes per peer on the placement ring (with -peers)")
	fs.Uint64Var(&o.ringSeed, "ring-seed", 0, "placement hash seed; must match on every member (with -peers)")
	fs.StringVar(&o.self, "self", "", "this member's base URL as listed in -peers (default: http://<bound address>)")
	fs.StringVar(&o.seedPeers, "seed-peers", "",
		"comma-separated base URLs to gossip with even when absent from the ring (bootstrap contacts for a joining member)")
	fs.DurationVar(&o.probeInterval, "probe-interval", time.Second, "gossip probe cadence")
	fs.IntVar(&o.suspectAfter, "suspect-after", 3, "consecutive missed probes before a peer turns suspect")
	fs.DurationVar(&o.suspectFor, "suspect-timeout", 10*time.Second, "how long a peer stays suspect before it is declared dead")
	fs.DurationVar(&o.repairEvery, "repair-interval", 30*time.Second, "anti-entropy repair cadence on the leader (0 = disabled)")
	fs.DurationVar(&o.repairPause, "repair-throttle", 10*time.Millisecond, "pause between repaired trials, pacing repair behind foreground traffic")
	fs.StringVar(&o.hintsDir, "hints-dir", "", "durable hinted-handoff directory (default: <repo>.hints; must be outside -repo)")
	return fs
}

// run is main with injectable arguments, streams and a readiness hook, for
// testing. ready (when non-nil) receives the bound address once the
// listener is open.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	var o options
	if err := newFlagSet(&o, stderr).Parse(args); err != nil {
		return 2
	}

	logger := slog.New(slog.NewJSONHandler(stderr, nil))

	repo, err := perfdmf.OpenRepository(o.repoDir)
	if err != nil {
		return fail(logger, err)
	}
	if o.fsck {
		rep, err := repo.Verify()
		if err != nil {
			return fail(logger, err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(rep); err != nil {
			return fail(logger, err)
		}
		if !rep.Clean() {
			return 1
		}
		return 0
	}
	// Listen before building the cluster layer: an active member's self
	// URL defaults to the address it actually bound.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fail(logger, err)
	}
	bound := ln.Addr().String()
	selfURL := o.self
	if selfURL == "" {
		selfURL = "http://" + bound
	}

	// With -peers (or -seed-peers) the daemon is a cluster member. The
	// descriptor built from flags is only the STARTING point: the member's
	// agent adopts newer epochs announced anywhere in the cluster and heals
	// placement on its own.
	var node *cluster.Agent
	var reg *obs.Registry
	if o.peers != "" || o.seedPeers != "" {
		rpeers := splitPeers(o.peers)
		r := dmfwire.Ring{
			Epoch:    o.ringEpoch,
			Replicas: o.replicas,
			VNodes:   o.vnodes,
			Seed:     o.ringSeed,
			Peers:    rpeers,
		}
		if len(rpeers) == 0 {
			// Joining purely via seeds: start as a self-only ring and let
			// gossip deliver the real (higher-epoch) descriptor.
			r.Peers = []string{selfURL}
			r.Replicas = 1
		}
		hd := o.hintsDir
		if hd == "" {
			// Sibling of the repository, NEVER inside it: the
			// repository walks every subdirectory as profile data.
			hd = strings.TrimSuffix(o.repoDir, "/") + ".hints"
		}
		reg = obs.NewRegistry()
		node, err = cluster.NewAgent(cluster.AgentConfig{
			Self:           selfURL,
			Ring:           r,
			SeedPeers:      splitPeers(o.seedPeers),
			ProbeInterval:  o.probeInterval,
			SuspectAfter:   o.suspectAfter,
			SuspectTimeout: o.suspectFor,
			RepairInterval: o.repairEvery,
			RepairThrottle: o.repairPause,
			HintsDir:       hd,
			Logger:         logger,
			Registry:       reg,
		})
		if err != nil {
			return fail(logger, err)
		}
	}

	if o.jobs <= 0 {
		o.jobs = runtime.GOMAXPROCS(0) // what dmfserver.New makes of it; the log line reports it
	}
	cfg := dmfserver.Config{
		Repo:           repo,
		RulesDir:       o.rulesDir,
		Jobs:           o.jobs,
		MaxBodyBytes:   o.maxBody,
		RequestTimeout: o.timeout,
		AdmissionWait:  o.admission,
		Logger:         logger,
		Registry:       reg,
		StreamWindow:   normalizeStreamWindow(o.streamWindow),
		StandingRules:  splitPeers(o.standingRules),
	}
	if node != nil {
		cfg.Node = node
	}
	srv, err := dmfserver.New(cfg)
	if err != nil {
		return fail(logger, err)
	}
	defer srv.Close()
	if node != nil {
		node.Start()
		defer node.Close()
		logger.Info("cluster agent running", "self", selfURL,
			"epoch", node.Ring().Epoch, "peers", len(node.Ring().Peers),
			"probe", o.probeInterval.String(), "repair", o.repairEvery.String())
	}

	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(bound), 0o644); err != nil {
			return fail(logger, err)
		}
	}
	if ready != nil {
		ready <- bound
	}
	fmt.Fprintf(stdout, "perfdmfd listening on %s (repo %s)\n", bound, o.repoDir)
	logger.Info("listening", "addr", bound, "repo", o.repoDir, "jobs", o.jobs)

	httpSrv := srv.HTTPServer(bound)

	// The profiler listens on its own address so operational tooling can
	// reach /debug/pprof without exposing it beside the public API.
	if o.debugAddr != "" {
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return fail(logger, err)
		}
		dbound := dln.Addr().String()
		if o.debugFile != "" {
			if err := os.WriteFile(o.debugFile, []byte(dbound), 0o644); err != nil {
				return fail(logger, err)
			}
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv := &http.Server{Handler: mux}
		defer debugSrv.Close()
		go func() { _ = debugSrv.Serve(dln) }()
		logger.Info("debug listening", "addr", dbound)
	}

	// Serve until a termination signal arrives, then drain connections.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fail(logger, err)
		}
	case <-ctx.Done():
		logger.Info("shutting down", "drain", o.drain.String())
		drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			logger.Warn("drain incomplete, closing", "err", err)
			_ = httpSrv.Close()
		}
		<-errc // Serve has returned ErrServerClosed
	}
	logger.Info("stopped")
	fmt.Fprintln(stdout, "perfdmfd stopped")
	return 0
}

func fail(logger *slog.Logger, err error) int {
	logger.Error("fatal", "err", err)
	return 1
}

// normalizeStreamWindow maps the flag's "0 = cumulative" convention onto
// the Config convention (0 = library default, negative = cumulative).
func normalizeStreamWindow(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

// splitPeers parses a comma-separated list flag (-peers, -standing-rules),
// ignoring blanks.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
