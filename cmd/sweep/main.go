// Command sweep runs a batch experiment campaign: it expands a grid of
// engines × workloads × cache hierarchies × EDU placements × bus widths
// × trace lengths, simulates every point on a bounded worker pool, and
// emits per-point results plus a ranked per-engine summary.
//
// Grid axes are comma-separated lists; empty axes take defaults (all
// engines, all workloads, the reference geometry). Integer axes accept
// K/M suffixes. Examples:
//
//	sweep -jobs 8
//	sweep -engines aegis,xom,gi -workloads sequential,pointer-chase
//	sweep -cache 4K,16K,64K -line 16,32,64 -refs 30000 -format csv
//	sweep -l2 0,64K,256K -engines aegis               # hierarchy axis
//	sweep -l2 64K -placement l1-l2,l2-dram            # Fig. 7 placement sweep
//	sweep -authtree none,tree,ctree -engines xom      # authentication axis
//	sweep -authtree tree -attack 1,4,16 -format csv   # active-adversary sweep
//	sweep -jobs 8 -progress         # live refs/sec + ETA on stderr
//	sweep -progress-json 2>prog.ndjson                # machine-readable progress
//	sweep -pprof localhost:6060     # net/http/pprof + /metrics + /trace snapshots
//	sweep -format json -o results.json                # write results to a file
//	sweep -spec grid.json -format csv                 # grid from a sweepd POST payload
//	sweep -trace out.json           # flight-recorder trace (open in Perfetto)
//	sweep -trace out.csv -trace-cap 1M                # CSV export, bigger rings
//
// Output is deterministic: a -jobs 8 run emits bytes identical to a
// -jobs 1 run (per-task RNG sharding; see internal/campaign), with or
// without -progress — progress lines go to stderr, never stdout.
//
// Workloads are streamed, not materialized: each task's references are
// generated on the fly from its derived seed, so memory is bounded by
// the simulated system state (cache-sized shadow plus touched DRAM
// pages — the working set), independent of trace length: a
// 100M-reference sweep (-refs 100000000) runs in constant memory.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/obs/rec"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specFlags := campaign.RegisterSpecFlags(fs)
	specPath := fs.String("spec", "", "read the grid spec from this JSON file (the exact payload sweepd's POST /sweeps accepts) instead of grid axis flags")
	jobs := fs.Int("jobs", campaign.DefaultJobs(), "worker pool size")
	format := fs.String("format", "table", "output format: table, csv or json")
	quiet := fs.Bool("q", false, "suppress the stderr progress line")
	progress := fs.Bool("progress", false, "stream live progress lines (refs/sec, ETA) to stderr; stdout is untouched")
	progressJSON := fs.Bool("progress-json", false, "emit -progress lines as JSON objects")
	progressInterval := fs.Duration("progress-interval", time.Second, "period between -progress lines")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and /metrics + /trace JSON snapshots on this address (e.g. localhost:6060)")
	outPath := fs.String("o", "", "write results to this file instead of stdout")
	tracePath := fs.String("trace", "", "record a flight-recorder trace and write it here (.csv = CSV, else Chrome trace_event JSON for Perfetto)")
	traceCap := fs.String("trace-cap", "", fmt.Sprintf("per-task trace ring capacity in events, K/M suffixes ok (default: %d)", campaign.DefaultTraceCap))
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}

	// The grid comes from one place: either the shared axis flags or a
	// -spec file carrying the exact JSON payload the sweepd service
	// accepts — so a campaign is portable between CLI and service runs.
	spec, err := specFlags.Spec()
	if *specPath != "" {
		if !specFlags.Empty() {
			return fail(fmt.Errorf("-spec replaces the grid axis flags; drop -engines/-workloads/-refs/-cache/-l2/-placement/-line/-bus/-authtree/-attack"))
		}
		var data []byte
		if data, err = os.ReadFile(*specPath); err == nil {
			spec, err = campaign.ParseSpecJSON(bytes.NewReader(data))
		}
	}
	if err != nil {
		return fail(err)
	}

	if !slices.Contains(campaign.Formats, *format) {
		return fail(fmt.Errorf("unknown format %q (want %s)", *format, strings.Join(campaign.Formats, ", ")))
	}
	store := campaign.NewStore()
	runner, err := campaign.NewRunnerWith(spec, store)
	if err != nil {
		return fail(err)
	}

	// Observability is opt-in and stderr/HTTP-only: the result stream on
	// stdout (or -o) stays byte-identical with or without it.
	var reg *obs.Registry
	if *progress || *progressJSON || *pprofAddr != "" {
		reg = obs.NewRegistry()
		runner.Observe(campaign.NewMetrics(reg))
	}
	// -trace-cap is validated even when no tracer is armed, matching
	// the other flags: a malformed value always exits before the run.
	ringCap := 0
	if *traceCap != "" {
		caps, err := campaign.ParseIntList(*traceCap)
		if err != nil || len(caps) != 1 || caps[0] <= 0 {
			return fail(fmt.Errorf("-trace-cap wants one positive event count, got %q", *traceCap))
		}
		ringCap = caps[0]
	}
	var tracer *campaign.Tracer
	if *tracePath != "" || *pprofAddr != "" {
		tracer = &campaign.Tracer{Cap: ringCap}
		runner.Trace(tracer)
	}

	if *pprofAddr != "" {
		stop, err := serveDebug(*pprofAddr, reg, tracer, stderr)
		if err != nil {
			return fail(err)
		}
		defer stop()
	}
	out := stdout
	var outFile *os.File
	if *outPath != "" {
		if outFile, err = os.Create(*outPath); err != nil {
			return fail(err)
		}
		defer outFile.Close()
		out = outFile
	}
	var prog *obs.Progress
	if *progress || *progressJSON {
		prog = obs.StartProgress(obs.ProgressConfig{
			W:        stderr,
			Interval: *progressInterval,
			JSON:     *progressJSON,
			Sample:   func() obs.ProgressSample { return sampleCampaign(reg) },
		})
	}

	start := time.Now()
	rep, err := runner.RunContext(ctx, *jobs)
	elapsed := time.Since(start)
	if prog != nil {
		prog.Stop()
	}
	if err != nil {
		return fail(err)
	}
	err = campaign.Emit(out, rep, *format)
	if outFile != nil {
		err = errors.Join(err, outFile.Close())
	}
	if err != nil {
		return fail(err)
	}
	if *tracePath != "" {
		if err := rec.WriteFile(*tracePath, campaign.TraceOf(rep)); err != nil {
			return fail(err)
		}
	}
	if !*quiet {
		fmt.Fprintf(stderr, "sweep: %d points, jobs=%d, baselines simulated=%d cached-hits=%d, %s\n",
			len(rep.Results), *jobs, store.BaselineRuns(), store.BaselineHits(),
			elapsed.Round(time.Millisecond))
	}
	return 0
}

// sampleCampaign reads the progress quantities from the registry's
// campaign.* and soc.* cells.
func sampleCampaign(reg *obs.Registry) obs.ProgressSample {
	var note string
	if busy := reg.Gauge("campaign.workers_busy").Load(); busy > 0 {
		note = fmt.Sprintf("busy %d", busy)
	}
	return obs.ProgressSample{
		Done:       reg.Counter("soc.refs").Load(),
		Total:      uint64(reg.Gauge("campaign.refs_planned").Load()),
		TasksDone:  reg.Counter("campaign.tasks_done").Load(),
		TasksTotal: uint64(reg.Gauge("campaign.tasks_total").Load()),
		Note:       note,
	}
}

// serveDebug starts the diagnostics endpoint: net/http/pprof under
// /debug/pprof/, the registry's JSON snapshot at /metrics, and the
// live flight-recorder snapshot at /trace. The listener binds before
// the sweep starts (a bad address should fail fast); the returned stop
// closes the server and waits for it, so it never outlives the run.
func serveDebug(addr string, reg *obs.Registry, tracer *campaign.Tracer, stderr io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux) // net/http/pprof's handlers
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/trace", tracer.Handler())
	fmt.Fprintf(stderr, "sweep: pprof+metrics+trace on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return func() {
		srv.Close()
		if err := <-errc; err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "sweep: debug server:", err)
		}
	}, nil
}
