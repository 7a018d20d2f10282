// Command sweepd is the resident sweep service: the cmd/sweep campaign
// engine promoted to a long-lived HTTP fabric. POST a grid spec (the
// same JSON `sweep -spec` reads) to /sweeps and it is validated,
// expanded, and enqueued on a bounded admission queue (429 on
// overflow); every admitted sweep runs through the same
// campaign.Runner.RunOn loop the sweep CLI uses, on one shared worker
// pool of -workers goroutines. Stream incremental NDJSON rows from
// /sweeps/{id}/results as points complete, fetch the final report —
// byte-identical to the sweep CLI on the same spec — from
// /sweeps/{id}/result, and DELETE to cancel. All sweeps share one
// process-lifetime baseline/result store, so concurrent users with
// overlapping grids reuse each other's work; -store persists it across
// restarts, and is how a daemon boots warm.
//
//	sweepd -addr localhost:8344
//	curl -X POST -d '{"engines":["aegis"],"workloads":["sequential"],"refs":[20000]}' localhost:8344/sweeps
//	curl -N localhost:8344/sweeps/s1-91c2e0f7/results         # live NDJSON rows
//	curl 'localhost:8344/sweeps/s1-91c2e0f7/result?format=csv'
//	curl -X DELETE localhost:8344/sweeps/s1-91c2e0f7          # cancel
//	curl localhost:8344/metrics                               # fabric + store counters
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run serves until ctx is done, then drains. Nothing goes to stdout.
func run(ctx context.Context, args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8344", "listen address")
	workers := fs.Int("workers", campaign.DefaultJobs(), "shared simulation worker pool size")
	queueDepth := fs.Int("queue", 16, "admission queue depth (sweeps waiting to execute; overflow answers 429)")
	maxActive := fs.Int("max-active", 2, "sweeps feeding the worker pool concurrently")
	maxTasks := fs.Int("max-tasks", 65536, "largest grid expansion accepted (413 beyond)")
	storePath := fs.String("store", "", "shared-store checkpoint file: loaded at boot, rewritten after every sweep and at shutdown")
	traceCap := fs.String("trace-cap", "", "arm per-sweep flight recording with this per-task ring capacity in events, K/M suffixes ok (debugging; default off)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}

	ringCap := 0
	if *traceCap != "" {
		caps, err := campaign.ParseIntList(*traceCap)
		if err != nil || len(caps) != 1 || caps[0] <= 0 {
			return fail(fmt.Errorf("-trace-cap wants one positive event count, got %q", *traceCap))
		}
		ringCap = caps[0]
	}

	srv := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		MaxActive:    *maxActive,
		MaxTasks:     *maxTasks,
		TraceCap:     ringCap,
		SnapshotPath: *storePath,
	})
	if err := srv.Start(); err != nil {
		return fail(err)
	}
	defer srv.Close()

	// Bind before announcing so scripts (and the e2e tests) can watch
	// stderr for the live address — including a kernel-assigned :0 port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stderr, "sweepd: serving on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return fail(err)
	case <-ctx.Done():
		fmt.Fprintln(stderr, "sweepd: shutting down: draining")
	}
	// Close the fabric first: admission flips to 503, live sweeps cancel
	// and finalize (so streaming subscribers reach end-of-stream), the
	// checkpoint is written — then the HTTP side drains cleanly.
	closeErr := srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	if closeErr != nil {
		return fail(closeErr)
	}
	return 0
}
