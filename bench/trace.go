package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"perfknow/internal/obs"
)

// runTraced is the traced run. It boots the system twice. The first boot
// is plain and runs half an untraced run's rounds: the ungated timing
// metrics, their tails and the harness health come from it, untraced. The
// second has the harness seams installed: it replays a fixed sample of each
// op kind single-threaded with spans recorded, then runs the same
// closed-loop rounds with the seams counting but not recording, which gives
// the tracing overhead and the process counters. The direct probes run last.
func runTraced(w *workload, opt Options, workDir string) (*Report, error) {
	warm, seg, n := opt.shape()
	n = max(1, n/2)
	rep := &Report{Workload: w.name, Seed: opt.Seed, Seconds: opt.Seconds, Traced: true}
	m := newMetricSet(perLayerUnits)

	plain, err := boot(w, opt, workDir, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rp := &runner{w: w, sys: plain, sched: newSchedule(w, opt.Seed)}
	calib := newCalibrator(plain.root)
	base, err := rp.timedRounds(warm, seg, n, false, calib)
	if err != nil {
		plain.close()
		return nil, err
	}
	orc := rp.oracle()
	alerts := rp.alertSamples()
	plain.close()
	attempted, failed := base.counts()
	attempted, failed = attempted+orc.checked, failed+orc.failed
	rep.Errors = append(rp.errs, orc.errs...)

	tr := newTracer()
	sys, err := boot(w, opt, workDir, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	booted := time.Now()
	r := &runner{w: w, sys: sys, sched: newSchedule(w, opt.Seed)}
	sampleSize := w.traceSample
	if opt.Sample > 0 {
		sampleSize = opt.Sample
	}
	rp2 := r.replay(tr, sampleSize)

	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	var allocBytes, allocs uint64
	closedOps := 0
	stopSampler := r.sampleWaiting(m)
	seamed := &rounds{}
	for i := 0; i < n; i++ {
		g := r.segment(false, w.closedLen(seg), true)
		seamed.closed = append(seamed.closed, g)
		allocBytes += g.allocBytes
		allocs += g.allocs
		closedOps += g.okOps()
	}
	stopSampler()
	orc = r.oracle()
	seamedAttempted, seamedFailed := seamed.counts()
	seamedOps := float64(seamedAttempted + rp2.attempted)
	attempted += seamedAttempted + rp2.attempted + orc.checked
	failed += seamedFailed + rp2.failed + orc.failed
	rp.healthMetrics(m, base, alerts, calib, attempted, failed)

	rate := func(g *segment) (float64, bool) { return g.opsPerS(), g.okOps() > 0 }
	if plainRate, seamedRate := overRounds(base.closed, rate), overRounds(seamed.closed, rate); plainRate > 0 && seamedRate > 0 {
		// Below the noise floor the seamed boot can come out faster; the
		// overhead is then reported as 0, not as a negative cost.
		m.set("trace.overhead_pct", max(0, (plainRate-seamedRate)/plainRate*100))
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.set("process.rss_peak_mb", float64(ru.Maxrss)/1024) // Linux reports KB
	}
	if closedOps > 0 {
		m.set("process.alloc_kb_per_op", float64(allocBytes)/1024/float64(closedOps))
		m.set("process.allocs_per_op", float64(allocs)/float64(closedOps))
	}
	m.set("process.gc_pause_ms_total", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)

	var shed int64
	for _, n := range sys.nodes {
		shed += n.srv.Registry().Counter("requests_shed_total").Value()
	}
	if seamedOps > 0 {
		m.set("dmfserver.shed_per_kop", float64(shed)/seamedOps*1000)
	}
	if ls := sys.stream; ls != nil && ls.appends > 0 {
		total := 0
		for _, c := range ls.cycles {
			total += len(c)
		}
		m.set("dmfserver.alerts_per_kchunk", float64(total)/float64(ls.appends)*1000)
	}
	if w.cluster {
		var hints int
		var gossips int64
		for _, n := range sys.nodes {
			hints += n.agent.Hints().Pending()
			gossips += n.srv.Registry().Counter("cluster_gossip_total").Value()
		}
		m.set("cluster.hints_pending_end", float64(hints))
		m.set("cluster.gossip_msgs_per_s", float64(gossips)/time.Since(booted).Seconds())
		m.set("cluster.replicas_per_trial_end", orc.replicas)
		if seamedOps > 0 {
			rerouted := sys.store.Registry().Counter("cluster_writes_rerouted_total").Value()
			m.set("cluster.rerouted_per_kop", float64(rerouted)/seamedOps*1000)
		}
	}

	eng, err := runProbes(m, opt.Seed, workDir, max(16, sampleSize))
	if err != nil {
		return nil, fmt.Errorf("direct probes: %w", err)
	}
	rep.Ledger = rp2.ledger(m, tr, w, eng)

	if opt.TraceOut != "" {
		if err := writeTraceFile(opt.TraceOut, tr); err != nil {
			return nil, err
		}
	}
	rep.Metrics = m.complete()
	rep.Attempted, rep.Failed = attempted, failed
	rep.Errors = append(append(rep.Errors, r.errs...), orc.errs...)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// sampleWaiting polls the daemons' analysis_slots_waiting gauge (what GET
// /api/v1/metrics serves) twice a second and reports the maximum. Each
// poll walks the repository for the size gauges, hence the slow cadence.
func (r *runner) sampleWaiting(m *metricSet) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		peak := 0.0
		for {
			select {
			case <-done:
				m.set("parallel.waiting_max", peak)
				return
			case <-tick.C:
				for _, n := range r.sys.nodes {
					peak = max(peak, n.srv.Registry().Snapshot().Gauges["analysis_slots_waiting"])
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// replayed is what the single-threaded replay measured besides spans.
type replayed struct {
	attempted, failed int
	counts            [numKinds]int
	attempts          int64
	reqBytes          int64
	respBytes         int64
	backendCalls      [numKinds]int64
}

// replay executes the first sample ops of each kind from the workload's
// schedule, one at a time, each under a root span the seams hang their
// spans from. diagnose_live also seals its stream once, so the seal route
// is sampled.
func (r *runner) replay(tr *tracer, sampleSize int) *replayed {
	rp := &replayed{}
	kinds := len(r.w.mix)
	tr.recording.Store(true)
	defer tr.recording.Store(false)
	one := func(name string, kind opKind, fn func(ctx context.Context, root *span) error) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		root := tr.startRoot(name, map[string]string{"workload": r.w.name})
		tr.cur.Store(root)
		err := fn(ctx, root)
		tr.cur.Store(nil)
		tr.end(root)
		rp.attempted++
		rp.counts[kind]++
		if err != nil {
			rp.failed++
			r.noteErr(fmt.Errorf("replay %s: %w", name, err))
		}
	}
	for full, tries := 0, 0; full < kinds && tries < sampleSize*200; tries++ {
		_, o := r.sched.draw()
		if rp.counts[o.kind] >= sampleSize {
			continue
		}
		one("op."+o.kind.String(), o.kind, func(ctx context.Context, root *span) error {
			_, err := r.sys.do(ctx, o, time.Now(), root)
			return err
		})
		if rp.counts[o.kind] == sampleSize {
			full++
		}
	}
	rp.attempts, rp.reqBytes, rp.respBytes = tr.attempts.Load(), tr.reqBytes.Load(), tr.respBytes.Load()
	for k := range rp.backendCalls {
		rp.backendCalls[k] = tr.backendCalls[k].Load()
	}
	if ls := r.sys.stream; ls != nil {
		one("op.seal", opAppend, func(ctx context.Context, root *span) error {
			ls.mu.Lock()
			defer ls.mu.Unlock()
			return ls.sealAndReopen(withSpan(ctx, root))
		})
		rp.counts[opAppend]--
	}
	return rp
}

// ledger turns the recorded spans into the per-layer metrics that come
// from seams, and returns "where a request's time goes" per op kind: the
// p50 of the op and of each layer's self time along its blocking path.
func (rp *replayed) ledger(m *metricSet, tr *tracer, w *workload, eng *engineProbe) map[string]map[string]float64 {
	ops := 0
	for _, c := range rp.counts {
		ops += c
	}
	if w.name != "study_pipeline" && ops > 0 {
		m.set("dmfclient.attempts_per_op", float64(rp.attempts)/float64(ops))
		m.set("dmfclient.req_bytes_per_op", float64(rp.reqBytes)/float64(ops))
		m.set("dmfclient.resp_bytes_per_op", float64(rp.respBytes)/float64(ops))
	}
	if w.cluster {
		for _, k := range []opKind{opSave, opGet, opList} {
			if rp.counts[k] > 0 {
				m.set("cluster.backend_calls_per_"+k.String(), float64(rp.backendCalls[k])/float64(rp.counts[k]))
			}
		}
	}

	var call, clientSelf, netSelf, serverSelf, clusterSelf []float64
	route := make(map[string][]float64)
	rootMs := make(map[string][]float64)
	path := make(map[string]map[string][]float64) // op → layer → ms
	for _, trace := range tr.traces() {
		tree := newTraceTree(trace)
		name := strings.TrimPrefix(tree.root.Name, "op.")
		rootMs[name] = append(rootMs[name], tree.root.DurationMicros/1000)
		layers := make(map[string]float64)
		tree.blockingPath(tree.root, layers)
		if path[name] == nil {
			path[name] = make(map[string][]float64)
		}
		for layer, us := range layers {
			path[name][layer] = append(path[name][layer], us/1000)
		}
		if tree.clustered {
			clusterSelf = append(clusterSelf, tree.selfMicros(tree.root)/1000)
		}
		kind := kindOf(name)
		byID := make(map[string]obs.SpanData, len(trace.Spans))
		for _, sd := range trace.Spans {
			byID[sd.SpanID] = sd
		}
		callers := make(map[string]bool)
		for _, sd := range trace.Spans {
			switch sd.Name {
			case "dmfclient.transport":
				netSelf = append(netSelf, tree.selfMicros(sd)/1000)
				if p, ok := byID[sd.ParentID]; ok && !callers[p.SpanID] {
					callers[p.SpanID] = true
					call = append(call, p.DurationMicros/1000)
					clientSelf = append(clientSelf, tree.selfMicros(p)/1000)
				}
			case "dmfserver.handler":
				route[sd.Attrs["route"]] = append(route[sd.Attrs["route"]], sd.DurationMicros/1000)
				serverSelf = append(serverSelf, max(0, tree.selfMicros(sd)/1000-eng.ms(kind, w.shape)))
			}
		}
	}
	m.set("dmfclient.call_ms", percentile(call, 50))
	m.set("dmfclient.self_ms", percentile(clientSelf, 50))
	m.set("net.self_ms", percentile(netSelf, 50))
	m.set("dmfserver.self_ms", percentile(serverSelf, 50))
	for _, rt := range []string{"upload", "get", "list", "diagnose", "analyze", "append", "seal"} {
		m.set("dmfserver."+rt+"_ms", percentile(route[rt], 50))
	}
	if w.cluster {
		m.set("cluster.self_ms", percentile(clusterSelf, 50))
		for _, k := range []opKind{opSave, opGet, opList} {
			m.set("cluster."+k.String()+"_ms", percentile(rootMs[k.String()], 50))
		}
	}

	out := make(map[string]map[string]float64, len(rootMs))
	for name, ms := range rootMs {
		row := map[string]float64{"op_p50": percentile(ms, 50), "samples": float64(len(ms))}
		for layer, xs := range path[name] {
			row[layer] = percentile(xs, 50)
		}
		if e := eng.ms(kindOf(name), w.shape); e > 0 && name != "seal" {
			row["engine_probe"] = e
		}
		out[name] = row
	}
	return out
}

func kindOf(name string) opKind {
	for k := opKind(0); k < numKinds; k++ {
		if k.String() == name {
			return k
		}
	}
	return opAppend // "seal"
}
