package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"perfknow/internal/obs"
)

// TestPoolMetricsRegistered: RegisterMetrics exposes the pool's coarse
// counters through a registry snapshot.
func TestPoolMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)

	beforeFan := fanoutsTotal.Load()
	beforeWork := workersTotal.Load()
	for round := 0; round < 2; round++ {
		if err := ForEach(context.Background(), 64, 4, func(i int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Gauges["parallel_fanouts_total"]; got < float64(beforeFan+2) {
		t.Fatalf("parallel_fanouts_total = %v, want >= %d", got, beforeFan+2)
	}
	if got := snap.Gauges["parallel_workers_total"]; got < float64(beforeWork+8) {
		t.Fatalf("parallel_workers_total = %v, want >= %d", got, beforeWork+8)
	}
	if got := snap.Gauges["parallel_workers_active"]; got != float64(workersActive.Load()) {
		t.Fatalf("parallel_workers_active = %v, want %d", got, workersActive.Load())
	}
}

// TestPoolMetricsConcurrentWithSnapshots is the race regression test for
// the pool instrumentation: fan-outs and registry snapshots interleave
// from many goroutines. Run with -race.
func TestPoolMetricsConcurrentWithSnapshots(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = reg.Snapshot()
		}
	}()
	var total atomic.Int64
	for round := 0; round < 8; round++ {
		if err := ForEach(context.Background(), 256, 4, func(i int) error { total.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if total.Load() != 8*256 {
		t.Fatalf("items run = %d", total.Load())
	}
}

// BenchmarkForEachInstrumented measures the fan-out hot path with the pool
// metrics registered and a concurrent snapshot reader — the contention
// guard for BenchmarkParallelSpeedup. The per-item loop must stay free of
// instrumentation (counters update once per fan-out / per worker), so this
// benchmark's per-item cost should match an uninstrumented pool's. Run
// with -race to prove the instrumentation adds no data races either:
//
//	go test -race -run='^$' -bench=BenchmarkForEachInstrumented ./internal/parallel
func BenchmarkForEachInstrumented(b *testing.B) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = reg.Snapshot()
		}
	}()
	b.ResetTimer()
	var sink atomic.Int64
	for i := 0; i < b.N; i++ {
		if err := ForEach(context.Background(), 1024, 8, func(j int) error { sink.Add(1); return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	if sink.Load() == 0 {
		b.Fatal("no work ran")
	}
}
