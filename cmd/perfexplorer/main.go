// Command perfexplorer runs PerfExplorer analysis scripts and inference
// rules against a profile repository — the scripted, automated analysis
// path of Fig. 3.
//
// Usage:
//
//	perfexplorer -repo DIR -script FILE [-rules DIR] [-trace FILE] [arg ...]
//	perfexplorer -server URL -script FILE [-rules DIR] [-trace FILE] [arg ...]
//	perfexplorer -cluster URL1,URL2,... -script FILE [flags] [arg ...]
//	perfexplorer -repo DIR -list
//	perfexplorer -cluster URL1,URL2,... -upload FILE
//	perfexplorer -cluster URL1,URL2,... -get APP/EXP/TRIAL
//	perfexplorer -server URL -stream FILE [-stream-chunks N] [-stream-window N] [-stream-rules R1,R2]
//	perfexplorer -server URL -watch STREAM_ID
//	perfexplorer -server URL -streams
//	perfexplorer -write-assets DIR
//
// Script arguments (usually application, experiment and trial names) are
// visible to the script as the `args` list. RuleHarness("OpenUHRules.prl")
// reads a rule file of the built-in knowledge base (embedded from
// assets/rules, so the command runs from any directory), or of the
// directory -rules DIR names. The bundled analysis scripts are
// assets/scripts/*.pes; -write-assets DIR copies the built-in rules and
// scripts out for editing.
//
// With -server URL the script runs against a remote perfdmfd profile
// service instead of a local directory: Utilities.getTrial, listings and
// saveTrial all go over the wire, so existing scripts work against a
// shared networked repository unchanged. -repo is ignored when -server is
// set.
//
// With -cluster the script runs against a sharded, replicated perfdmfd
// cluster: the peer list plus -replicas/-ring-epoch/-vnodes/-ring-seed
// (which must match the daemons' flags) compile into the same placement
// ring the cluster was started with, and every read, write and listing is
// routed, replicated and unioned client-side — scripts are unchanged.
// -upload sends a trial JSON file through the routing layer; -get fetches
// one trial and prints it as JSON; -announce posts the descriptor the flags
// describe to one member, and gossip carries it to the rest.
//
// With -stream the trial JSON file is uploaded through the streaming API —
// opened, appended in chunks of -stream-chunks events, sealed — instead of in
// one request; standing diagnoses registered with -stream-rules fire
// alerts as the chunks arrive. -watch subscribes to a stream's alerts over
// SSE and prints them until the stream seals (watching a recently sealed
// stream replays its full alert history). -streams lists the server's
// stream table. See docs/STREAMING.md.
//
// With -trace FILE the run is traced: script statements, analysis
// operations, rule firings and repository I/O each record a span, and
// against -server the client's per-attempt request spans propagate their
// context via Traceparent headers so the server-side spans are fetched
// back and merged into one connected tree. The file holds a
// dmfwire.TraceFile (JSON).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"perfknow/internal/cluster"
	"perfknow/internal/core"
	"perfknow/internal/diagnosis"
	"perfknow/internal/dmfclient"
	"perfknow/internal/dmfwire"
	"perfknow/internal/obs"
	"perfknow/internal/perfdmf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds what the flags set.
type options struct {
	repoDir, serverURL, scriptPath, rulesDir, writeAssets, tracePath string
	list                                                             bool
	retries                                                          int

	clusterFlag, announce, uploadPath, getCoord string
	replicas, vnodes                            int
	ringEpoch, ringSeed                         uint64

	watchID, streamFile, streamRules string
	streamChunk, streamWin           int
	streamsList                      bool
}

// newFlagSet registers every flag of the command on o. run parses it; the
// documentation test walks it.
func newFlagSet(o *options, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("perfexplorer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.repoDir, "repo", "perfdata", "profile repository directory")
	fs.StringVar(&o.serverURL, "server", "", "remote perfdmfd URL (e.g. http://localhost:7360); overrides -repo")
	fs.StringVar(&o.scriptPath, "script", "", "analysis script (.pes) to run")
	fs.StringVar(&o.rulesDir, "rules", "", "directory holding .prl rule files (default: built-in knowledge base)")
	fs.BoolVar(&o.list, "list", false, "list repository contents and exit")
	fs.StringVar(&o.writeAssets, "write-assets", "", "write the bundled rules and scripts under this directory and exit")
	fs.StringVar(&o.tracePath, "trace", "", "trace the run and write the span tree (incl. server-side spans with -server) as JSON to this file")
	fs.IntVar(&o.retries, "retries", 0, "max attempts per remote request, incl. the first (0 = client default, 1 = no retries)")
	fs.StringVar(&o.clusterFlag, "cluster", "", "comma-separated perfdmfd peer URLs; route reads/writes across the cluster (overrides -server and -repo)")
	fs.IntVar(&o.replicas, "replicas", 2, "cluster replication factor R (with -cluster; must match the daemons)")
	fs.Uint64Var(&o.ringEpoch, "ring-epoch", 1, "cluster membership epoch (with -cluster; must match the daemons)")
	fs.IntVar(&o.vnodes, "vnodes", 64, "virtual nodes per peer on the placement ring (with -cluster; must match the daemons)")
	fs.Uint64Var(&o.ringSeed, "ring-seed", 0, "placement hash seed (with -cluster; must match the daemons)")
	fs.StringVar(&o.announce, "announce", "", "announce the ring built from -cluster/-ring-* flags to this daemon URL and exit; gossip spreads it to every member")
	fs.StringVar(&o.uploadPath, "upload", "", "upload this trial JSON file through the store and exit")
	fs.StringVar(&o.getCoord, "get", "", "fetch one trial (APP/EXP/TRIAL) and print it as JSON")
	fs.StringVar(&o.watchID, "watch", "", "subscribe to a stream's standing-diagnosis alerts (stream id; with -server) and print them until the stream seals")
	fs.StringVar(&o.streamFile, "stream", "", "stream-upload this trial JSON file in chunks and seal it (with -server)")
	fs.IntVar(&o.streamChunk, "stream-chunks", 8, "events per chunk for -stream")
	fs.IntVar(&o.streamWin, "stream-window", 0, "sliding-window size in chunks for -stream standing analysis (0 = server default, negative = cumulative)")
	fs.StringVar(&o.streamRules, "stream-rules", "", "comma-separated .prl rule names registered as standing diagnoses for -stream (empty = server default)")
	fs.BoolVar(&o.streamsList, "streams", false, "list the server's live and recently sealed streams (with -server)")
	return fs
}

// run is main with injectable arguments and streams, for testing.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := newFlagSet(&o, stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.writeAssets != "" {
		if err := diagnosis.WriteAssets(o.writeAssets); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote knowledge base under %s/rules and %s/scripts\n", o.writeAssets, o.writeAssets)
		return 0
	}

	// The descriptor is built from the same flags a daemon would use.
	desc := dmfwire.Ring{
		Epoch:    o.ringEpoch,
		Replicas: o.replicas,
		VNodes:   o.vnodes,
		Seed:     o.ringSeed,
		Peers:    splitPeers(o.clusterFlag),
	}.Canonical()

	// -announce: post a new ring descriptor to ONE member and let gossip
	// spread it — the online way to grow or shrink a cluster. The epoch must
	// be strictly newer than what the cluster holds.
	if o.announce != "" {
		if o.clusterFlag == "" {
			fmt.Fprintln(stderr, "perfexplorer: -announce requires -cluster (the new peer list)")
			return 2
		}
		if err := desc.Validate(); err != nil {
			return fail(stderr, err)
		}
		c, err := dmfclient.New(o.announce)
		if err != nil {
			return fail(stderr, err)
		}
		adopted, err := c.AnnounceRing(context.Background(), desc)
		if err != nil {
			return fail(stderr, err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(dmfwire.AnnounceResponse{Adopted: adopted, Epoch: desc.Epoch})
		if !adopted {
			fmt.Fprintf(stderr, "perfexplorer: %s did not adopt epoch %d (it already holds that epoch or newer)\n", o.announce, desc.Epoch)
			return 1
		}
		return 0
	}

	var tracer *obs.Tracer
	if o.tracePath != "" {
		tracer = obs.NewTracer()
		tracer.Service = "perfexplorer"
	}

	var store perfdmf.Store
	var client *dmfclient.Client
	switch {
	case o.clusterFlag != "":
		opts := []dmfclient.Option{dmfclient.WithTracer(tracer)}
		if o.retries > 0 {
			opts = append(opts, dmfclient.WithRetryPolicy(dmfclient.RetryPolicy{MaxAttempts: o.retries}))
		}
		sharded, err := cluster.Dial(desc, opts)
		if err != nil {
			return fail(stderr, err)
		}
		// Cross-check the ring before routing. EnsureRing distinguishes
		// the two ways peers can disagree: a peer AHEAD of us means our
		// flags are stale after an epoch bump — fetch and adopt the newer
		// descriptor, then re-verify; true misconfiguration (different
		// placement at one epoch) stays a hard error, since two processes
		// would place keys differently.
		confirmed, err := sharded.EnsureRing(context.Background())
		if err != nil {
			return fail(stderr, err)
		}
		live := sharded.Ring().Descriptor()
		fmt.Fprintf(stderr, "perfexplorer: cluster of %d peer(s), replicas=%d, epoch=%d (%d peer(s) confirmed the ring)\n",
			len(live.Peers), live.Replicas, live.Epoch, confirmed)
		store = sharded
	case o.serverURL != "":
		opts := []dmfclient.Option{dmfclient.WithTracer(tracer)}
		if o.retries > 0 {
			opts = append(opts, dmfclient.WithRetryPolicy(dmfclient.RetryPolicy{MaxAttempts: o.retries}))
		}
		var err error
		client, err = dmfclient.New(o.serverURL, opts...)
		if err != nil {
			return fail(stderr, err)
		}
		if err := client.Health(); err != nil {
			return fail(stderr, err)
		}
		store = client
	default:
		repo, err := perfdmf.OpenRepository(o.repoDir)
		if err != nil {
			return fail(stderr, err)
		}
		store = repo
	}

	if o.uploadPath != "" {
		return uploadTrial(store, o.uploadPath, stdout, stderr)
	}
	if o.getCoord != "" {
		return getTrial(store, o.getCoord, stdout, stderr)
	}
	if o.watchID != "" || o.streamFile != "" || o.streamsList {
		if client == nil {
			fmt.Fprintln(stderr, "perfexplorer: -watch, -stream and -streams require -server")
			return 2
		}
		switch {
		case o.streamsList:
			return listStreams(client, stdout, stderr)
		case o.streamFile != "":
			return streamTrial(client, o.streamFile, o.streamChunk, o.streamWin, splitPeers(o.streamRules), stdout, stderr)
		default:
			return watchStream(client, o.watchID, stdout, stderr)
		}
	}

	if o.list {
		return list(store, stdout, stderr)
	}

	if o.scriptPath == "" {
		fmt.Fprintln(stderr, "perfexplorer: -script is required (or -list / -write-assets)")
		fs.Usage()
		return 2
	}

	s := core.NewSession(store)
	s.SetOutput(stdout)
	diagnosis.Install(s, o.rulesDir)
	diagnosis.SetArgs(s, fs.Args())

	var root *obs.Span
	if o.tracePath != "" {
		ctx := obs.ContextWithTracer(context.Background(), tracer)
		ctx, root = obs.StartSpan(ctx, "perfexplorer.run", "script", o.scriptPath)
		s.SetContext(ctx)
	}
	scriptErr := s.RunScriptFile(o.scriptPath)
	root.SetError(scriptErr)
	root.End()
	if o.tracePath != "" {
		if err := writeTrace(tracer, root, client, o.tracePath, stderr); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "perfexplorer: trace written to %s\n", o.tracePath)
	}
	if scriptErr != nil {
		return fail(stderr, scriptErr)
	}
	if res := s.LastResult(); res != nil && len(res.Recommendations) > 0 {
		fmt.Fprintf(stdout, "\n%d recommendation(s) produced.\n", len(res.Recommendations))
	}
	return 0
}

// list prints the store's tree. A listing that fails (an unreachable server
// or cluster) is an error, never a misleading empty tree.
func list(store perfdmf.Store, stdout, stderr io.Writer) int {
	apps, err := store.ListApplications()
	if err != nil {
		return fail(stderr, err)
	}
	for _, app := range apps {
		fmt.Fprintln(stdout, app)
		exps, err := store.ListExperiments(app)
		if err != nil {
			return fail(stderr, err)
		}
		for _, exp := range exps {
			fmt.Fprintf(stdout, "  %s\n", exp)
			trs, err := store.ListTrials(app, exp)
			if err != nil {
				return fail(stderr, err)
			}
			for _, tr := range trs {
				fmt.Fprintf(stdout, "    %s\n", tr)
			}
		}
	}
	return 0
}

// writeTrace assembles the run's trace — local spans plus, against a
// server, the server-side fragment fetched back by trace id — and writes
// it to path as a dmfwire.TraceFile.
func writeTrace(tracer *obs.Tracer, root *obs.Span, client *dmfclient.Client, path string, stderr io.Writer) error {
	id := root.TraceID()
	if client != nil {
		// The fetch itself is traced under its own fresh trace id (the run's
		// root already ended), so it cannot grow the tree it exports. The
		// server finalizes each request's spans just after writing its
		// response, so the final request's fragment may land a beat after
		// our last response arrived — retry a 404 briefly before concluding
		// the server saw no requests.
		var (
			remote obs.Trace
			err    error
		)
		for attempt := 0; attempt < 4; attempt++ {
			remote, err = client.TraceContext(context.Background(), id)
			if err == nil || !errors.Is(err, perfdmf.ErrNotFound) {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		switch {
		case err == nil:
			tracer.Merge(remote)
		case errors.Is(err, perfdmf.ErrNotFound):
			// No remote fragment: the script made no remote requests.
		default:
			fmt.Fprintf(stderr, "perfexplorer: warning: server-side spans unavailable (writing local spans only): %v\n", err)
		}
	}
	tr, ok := tracer.Trace(id)
	if !ok {
		return fmt.Errorf("perfexplorer: trace %s was not finalized", id)
	}
	data, err := json.MarshalIndent(dmfwire.TraceFile{Traces: []obs.Trace{tr}}, "", "  ")
	if err != nil {
		return fmt.Errorf("perfexplorer: encode trace: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("perfexplorer: write trace: %w", err)
	}
	return nil
}

// uploadTrial reads a trial JSON file, validates it, and saves it through
// the store — against -cluster that is a replicated, routed write.
func uploadTrial(store perfdmf.Store, path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(stderr, err)
	}
	var tr perfdmf.Trial
	if err := json.Unmarshal(data, &tr); err != nil {
		return fail(stderr, fmt.Errorf("parse %s: %w", path, err))
	}
	if err := tr.Validate(); err != nil {
		return fail(stderr, err)
	}
	if err := store.SaveContext(context.Background(), &tr); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "uploaded %s/%s/%s\n", tr.App, tr.Experiment, tr.Name)
	return 0
}

// getTrial fetches one APP/EXP/TRIAL coordinate and prints the trial as
// JSON — against -cluster the read fans out over the replicas.
func getTrial(store perfdmf.Store, coord string, stdout, stderr io.Writer) int {
	parts := strings.SplitN(coord, "/", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return fail(stderr, fmt.Errorf("-get wants APP/EXP/TRIAL, got %q", coord))
	}
	tr, err := store.GetTrialContext(context.Background(), parts[0], parts[1], parts[2])
	if err != nil {
		return fail(stderr, err)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tr); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// streamTrial pushes a trial JSON file through the streaming API: open a
// stream at the trial's coordinates, append the events in fixed-size
// chunks, seal. The sealed trial is byte-identical to what -upload of the
// same file would have stored; the difference is that standing diagnoses
// ran while the data arrived (the alert count is reported, and the alerts
// themselves replay to any -watch subscriber, even after the seal).
func streamTrial(client *dmfclient.Client, path string, chunkEvents, window int, ruleNames []string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(stderr, err)
	}
	var tr perfdmf.Trial
	if err := json.Unmarshal(data, &tr); err != nil {
		return fail(stderr, fmt.Errorf("parse %s: %w", path, err))
	}
	if err := tr.Validate(); err != nil {
		return fail(stderr, err)
	}
	if chunkEvents < 1 {
		chunkEvents = 1
	}
	var opts []dmfclient.StreamOption
	if window != 0 {
		opts = append(opts, dmfclient.WithStreamWindow(window))
	}
	if len(ruleNames) > 0 {
		opts = append(opts, dmfclient.WithStandingRules(ruleNames...))
	}
	ctx := context.Background()
	info, err := client.OpenStream(ctx, tr.App, tr.Experiment, tr.Name, tr.Threads, tr.Metrics, opts...)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "stream %s opened for %s/%s/%s\n", info.ID, tr.App, tr.Experiment, tr.Name)
	var seq int64
	var lastAck *dmfwire.AppendAck
	for start := 0; start < len(tr.Events); start += chunkEvents {
		end := start + chunkEvents
		if end > len(tr.Events) {
			end = len(tr.Events)
		}
		chunk := make([]dmfwire.ChunkEvent, 0, end-start)
		for _, ev := range tr.Events[start:end] {
			chunk = append(chunk, dmfwire.ChunkEvent{
				Name:      ev.Name,
				Groups:    ev.Groups,
				Calls:     ev.Calls,
				Inclusive: ev.Inclusive,
				Exclusive: ev.Exclusive,
			})
		}
		seq++
		ack, err := client.Append(ctx, info.ID, seq, chunk)
		if err != nil {
			return fail(stderr, err)
		}
		lastAck = ack
	}
	sum, err := client.Seal(ctx, info.ID)
	if err != nil {
		return fail(stderr, err)
	}
	alerts := int64(0)
	if lastAck != nil {
		alerts = lastAck.Alerts
	}
	fmt.Fprintf(stdout, "stream %s sealed: %d chunk(s), %d event(s), %d metric(s), %d alert(s)\n",
		info.ID, seq, sum.Events, sum.Metrics, alerts)
	return 0
}

// watchStream follows one stream's standing-diagnosis alerts until the
// stream seals (exit 0) or the subscription fails. Sealed streams are
// retained server-side for a while, so watching after the fact replays the
// full alert history.
func watchStream(client *dmfclient.Client, id string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	final, err := client.WatchAlerts(ctx, id, func(a dmfwire.StreamAlert) {
		fmt.Fprintf(stdout, "alert %d (chunk %d): %s\n", a.ID, a.Seq, a.Rule)
		for _, line := range a.Output {
			fmt.Fprintf(stdout, "  %s\n", line)
		}
		for _, rec := range a.Recommendations {
			fmt.Fprintf(stdout, "  >> [%s] %s\n", rec.Category, rec.Text)
		}
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return 0 // user interrupt: a clean stop, not a failure
		}
		return fail(stderr, err)
	}
	if final != nil {
		fmt.Fprintf(stdout, "stream %s sealed after %d chunk(s): %d event(s), %d alert(s)\n",
			final.ID, final.LastSeq, final.Events, final.Alerts)
	} else {
		fmt.Fprintf(stdout, "stream %s ended without sealing\n", id)
	}
	return 0
}

// listStreams prints the server's stream table.
func listStreams(client *dmfclient.Client, stdout, stderr io.Writer) int {
	streams, err := client.Streams(context.Background())
	if err != nil {
		return fail(stderr, err)
	}
	for _, st := range streams {
		fmt.Fprintf(stdout, "%s\t%s/%s/%s\t%s\tchunks=%d events=%d alerts=%d\n",
			st.ID, st.App, st.Experiment, st.Trial, st.State, st.LastSeq, st.Events, st.Alerts)
	}
	return 0
}

// splitPeers parses the -cluster flag: comma-separated URLs, blanks
// ignored.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "perfexplorer:", err)
	return 1
}
