// Remote diagnosis: the quickstart flow against a networked repository.
//
// The same tiny UH program as examples/quickstart is compiled and executed
// on the simulated Altix — but instead of analyzing the profile in
// process, this example boots a perfdmfd profile service on a loopback
// port, uploads the trial through the client library, asks the server to
// run the stalls-per-cycle diagnosis script, and prints the
// recommendations it sends back. The printed script output is
// byte-identical to what the in-process session would have produced.
//
// Run with: go run ./examples/remote_diagnosis
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"time"

	"perfknow"
)

const source = `
program quickstart
proc main() {
    loop timestep 25 {
        call sweep
    }
}
proc sweep() {
    parallel loop rows 128 schedule(dynamic,1) {
        compute fp=3000 int=700 loads=1200 stores=600 branches=96 \
                region=grid off=0 len=4194304 reuse=8 dep=0.35 firsttouch
    }
}
`

func main() {
	// 1. Compile and execute, exactly as in examples/quickstart.
	prog, err := perfknow.ParseSource(source)
	if err != nil {
		log.Fatal(err)
	}
	ex, _, err := perfknow.Compile(prog, perfknow.O2, perfknow.DefaultInstrumentation(), nil)
	if err != nil {
		log.Fatal(err)
	}
	m := perfknow.NewMachine(perfknow.AltixConfig(8, 2))
	eng := perfknow.NewEngine(m, 8)
	trial, err := ex.Run(eng, "quickstart", "demo", "8_O2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %q on 8 threads: %d instrumented events\n",
		prog.Name, len(trial.Events))

	// 2. Boot a perfdmfd profile service on a loopback port. In production
	// this is `perfdmfd -repo DIR -addr HOST:PORT` on a shared machine. To
	// show the resilience layer at work, this demo server injects faults
	// (resets, truncation, 5xx bursts) on a deterministic seeded schedule —
	// the client retries through all of them.
	srv, err := perfknow.NewProfileServer(perfknow.ProfileServerConfig{
		Repo:          perfknow.NewRepository(),
		FaultInjector: perfknow.NewFaultSchedule(perfknow.FaultOptions{Seed: 7, Rate: 0.3}),
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close() // removes the materialized knowledge-base temp dir
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := srv.HTTPServer(ln.Addr().String())
	go func() { _ = httpSrv.Serve(ln) }()
	fmt.Printf("perfdmfd serving on http://%s\n", ln.Addr())

	// 3. Upload the trial through the client library. The client implements
	// the same Store interface as a local repository.
	// Idempotent requests retry with exponential backoff; the upload carries
	// an idempotency key the server deduplicates, so even a retried POST
	// stores the trial exactly once.
	client, err := perfknow.DialRepository("http://"+ln.Addr().String(),
		perfknow.WithRetryPolicy(perfknow.RetryPolicy{
			MaxAttempts: 6,
			BaseDelay:   5 * time.Millisecond,
		}))
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Health(); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if err := client.SaveContext(ctx, trial); err != nil {
		log.Fatal(err)
	}
	apps, err := client.ListApplications()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded %s/%s/%s; server now holds %v\n",
		trial.App, trial.Experiment, trial.Name, apps)

	// 4. Run the Fig. 1 analysis script server-side: the service spins up a
	// PerfExplorer session over the shared repository, runs the script plus
	// inference rules, and returns the output and recommendations.
	fmt.Println("\nrunning stalls_per_cycle.pes remotely:")
	resp, err := client.DiagnoseContext(ctx, perfknow.DiagnoseRequest{
		Script: "stalls_per_cycle",
		Args:   []string{trial.App, trial.Experiment, trial.Name},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(resp.Stdout)
	fmt.Printf("\n%d recommendation(s) from the remote knowledge base:\n", len(resp.Recommendations))
	for _, rec := range resp.Recommendations {
		fmt.Printf("  [%s] %s\n", rec.Category, rec.Text)
	}

	if st := client.Stats(); st.Retries > 0 {
		fmt.Printf("\n(the client absorbed %d injected fault(s) across %d attempts)\n",
			st.Retries, st.Attempts)
	}

	// 5. Drain and stop, as the daemon does on SIGTERM.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserver drained and stopped")
}
