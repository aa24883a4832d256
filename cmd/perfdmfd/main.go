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
// (recovering orphaned temp files, quarantining corrupt trial files, moving
// valid files that sit at another name's path to their own), prints the
// fsck report as JSON on stdout, and exits 0 if the store is clean or 1
// otherwise — the offline twin of GET /api/v1/fsck. Run it once over a
// repository written before names were percent-escaped on disk: a trial
// filed under the old underscore scheme is not served until it is moved.
//
// Streaming ingestion: POST /api/v1/streams opens a chunked upload whose
// seal stores a trial byte-identical to a whole-file upload; while chunks
// arrive, standing diagnoses (rule files named per-open or defaulted by
// -standing-rules) analyze a sliding window of -stream-window chunks and
// fire alerts over SSE at GET /api/v1/streams/{id}/alerts. See
// docs/STREAMING.md.
//
// With -peers the daemon joins a cluster: every member is started with
// the same -peers/-replicas/-ring-epoch/-vnodes/-ring-seed (and
// -ring-version for the placement hash), serves its current ring
// descriptor at GET /api/v1/cluster, and publishes cluster_* gauges in
// /api/v1/metrics. Members are ACTIVE by default (-gossip=true): each
// daemon runs a gossip agent that probes its peers every -probe-interval,
// marks them suspect after -suspect-after missed probes and dead after
// -suspect-timeout of suspicion, accepts hinted writes (durable IOUs kept
// under -hints-dir and replayed when the owner returns), adopts ring
// epoch bumps announced to ANY member (POST /api/v1/cluster) without a
// restart, and — on the lowest-URL alive member — runs an anti-entropy
// repair pass every -repair-interval that restores the replication factor
// after permanent node loss. -seed-peers adds gossip contacts beyond the
// ring (how a freshly configured member finds a running cluster). With
// -gossip=false the daemon serves the static descriptor only and healing
// falls back to the operator-driven perfexplorer -rebalance. See
// docs/CLUSTER.md.
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
	"strings"
	"syscall"
	"time"

	"perfknow/internal/cluster"
	"perfknow/internal/dmfserver"
	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
	"perfknow/internal/parallel"
	"perfknow/internal/perfdmf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main with injectable arguments, streams and a readiness hook, for
// testing. ready (when non-nil) receives the bound address once the
// listener is open.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("perfdmfd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:7360", "listen address (use :0 for an ephemeral port)")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file once listening")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		debugFile = fs.String("debug-addr-file", "", "write the bound debug address to this file once listening")
		repoDir   = fs.String("repo", "perfdata", "profile repository directory")
		rulesDir  = fs.String("rules", "", "directory holding .prl rule files (default: built-in knowledge base)")
		jobs      = fs.Int("j", 0, "max concurrent analysis/diagnosis requests, each one goroutine of analysis (0 = GOMAXPROCS)")
		maxBody   = fs.Int64("max-body", dmfserver.DefaultMaxBodyBytes, "max request body bytes")
		timeout   = fs.Duration("timeout", dmfserver.DefaultRequestTimeout, "per-request time budget")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		admission = fs.Duration("admission-wait", dmfserver.DefaultAdmissionWait,
			"how long a request may wait for an analysis slot before being shed with 429 (negative = shed immediately)")
		fsck = fs.Bool("fsck", false,
			"verify the repository (recover temp files, quarantine corrupt trials), print the report as JSON and exit: 0 if clean, 1 otherwise")
		streamWindow = fs.Int("stream-window", dmfserver.DefaultStreamWindow,
			"default sliding-window size in chunks for standing stream analysis (0 = cumulative; streams may override per-open)")
		standingRules = fs.String("standing-rules", "",
			"comma-separated .prl rule names (from -rules) registered as standing diagnoses on every stream that names none")
		peers = fs.String("peers", "",
			"comma-separated base URLs of every cluster member (including this one); empty = standalone")
		replicas    = fs.Int("replicas", 2, "cluster replication factor R (with -peers)")
		ringEpoch   = fs.Uint64("ring-epoch", 1, "cluster membership epoch; bump when -peers changes (with -peers)")
		vnodes      = fs.Int("vnodes", 64, "virtual nodes per peer on the placement ring (with -peers)")
		ringSeed    = fs.Uint64("ring-seed", 0, "placement hash seed; must match on every member (with -peers)")
		ringVersion = fs.Int("ring-version", 1, "placement hash version: 1 = legacy, 2 = mixed (better dispersion); must match on every member")
		gossip      = fs.Bool("gossip", true, "run the gossip membership agent (self-healing cluster); false = static descriptor only")
		self        = fs.String("self", "", "this member's base URL as listed in -peers (default: http://<bound address>)")
		seedPeers   = fs.String("seed-peers", "",
			"comma-separated base URLs to gossip with even when absent from the ring (bootstrap contacts for a joining member)")
		probeInterval = fs.Duration("probe-interval", time.Second, "gossip probe cadence")
		suspectAfter  = fs.Int("suspect-after", 3, "consecutive missed probes before a peer turns suspect")
		suspectFor    = fs.Duration("suspect-timeout", 10*time.Second, "how long a peer stays suspect before it is declared dead")
		repairEvery   = fs.Duration("repair-interval", 30*time.Second, "anti-entropy repair cadence on the leader (0 = disabled)")
		repairPause   = fs.Duration("repair-throttle", 10*time.Millisecond, "pause between repaired trials, pacing repair behind foreground traffic")
		hintsDir      = fs.String("hints-dir", "", "durable hinted-handoff directory (default: <repo>.hints; must be outside -repo)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	parallel.SetDefaultWorkers(*jobs)

	logger := slog.New(slog.NewJSONHandler(stderr, nil))

	repo, err := perfdmf.OpenRepository(*repoDir)
	if err != nil {
		return fail(logger, err)
	}
	if *fsck {
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
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(logger, err)
	}
	bound := ln.Addr().String()
	selfURL := *self
	if selfURL == "" {
		selfURL = "http://" + bound
	}

	// With -peers (or -seed-peers) the daemon is a cluster member. The
	// descriptor built from flags is only the STARTING point: with
	// -gossip (the default) the member's agent adopts newer epochs
	// announced anywhere in the cluster and heals placement on its own;
	// with -gossip=false the descriptor is static, as in the original
	// client-routed design.
	var ring *dmfwire.Ring
	var node *cluster.Agent
	var reg *obs.Registry
	if *peers != "" || *seedPeers != "" {
		rpeers := splitPeers(*peers)
		r := dmfwire.Ring{
			Epoch:    *ringEpoch,
			Replicas: *replicas,
			VNodes:   *vnodes,
			Seed:     *ringSeed,
			Version:  *ringVersion,
			Peers:    rpeers,
		}
		if len(rpeers) == 0 {
			// Joining purely via seeds: start as a self-only ring and let
			// gossip deliver the real (higher-epoch) descriptor.
			r.Peers = []string{selfURL}
			r.Replicas = 1
		}
		canon := r.Canonical()
		if err := canon.Validate(); err != nil {
			return fail(logger, err)
		}
		ring = &canon
		if *gossip {
			hd := *hintsDir
			if hd == "" {
				// Sibling of the repository, NEVER inside it: the
				// repository walks every subdirectory as profile data.
				hd = strings.TrimSuffix(*repoDir, "/") + ".hints"
			}
			reg = obs.NewRegistry()
			node, err = cluster.NewAgent(cluster.AgentConfig{
				Self:           selfURL,
				Ring:           canon,
				SeedPeers:      splitPeers(*seedPeers),
				ProbeInterval:  *probeInterval,
				SuspectAfter:   *suspectAfter,
				SuspectTimeout: *suspectFor,
				RepairInterval: *repairEvery,
				RepairThrottle: *repairPause,
				HintsDir:       hd,
				Logger:         logger,
				Registry:       reg,
			})
			if err != nil {
				return fail(logger, err)
			}
		}
	}

	cfg := dmfserver.Config{
		Repo:           repo,
		RulesDir:       *rulesDir,
		Jobs:           *jobs,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		AdmissionWait:  *admission,
		Logger:         logger,
		Ring:           ring,
		Registry:       reg,
		StreamWindow:   normalizeStreamWindow(*streamWindow),
		StandingRules:  splitPeers(*standingRules),
	}
	if node != nil {
		cfg.Node = node
	}
	srv, err := dmfserver.New(cfg)
	if err != nil {
		return fail(logger, err)
	}
	defer srv.Close() // removes the owned temp assets dir, if any
	if node != nil {
		node.Start()
		defer node.Close()
		logger.Info("cluster agent running", "self", selfURL,
			"epoch", node.Ring().Epoch, "peers", len(node.Ring().Peers),
			"probe", (*probeInterval).String(), "repair", (*repairEvery).String())
	}

	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			return fail(logger, err)
		}
	}
	if ready != nil {
		ready <- bound
	}
	fmt.Fprintf(stdout, "perfdmfd listening on %s (repo %s)\n", bound, *repoDir)
	logger.Info("listening", "addr", bound, "repo", *repoDir, "jobs", parallel.Workers(*jobs))

	httpSrv := srv.HTTPServer(bound)

	// The profiler listens on its own address so operational tooling can
	// reach /debug/pprof without exposing it beside the public API.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fail(logger, err)
		}
		dbound := dln.Addr().String()
		if *debugFile != "" {
			if err := os.WriteFile(*debugFile, []byte(dbound), 0o644); err != nil {
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
		logger.Info("shutting down", "drain", (*drain).String())
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
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
