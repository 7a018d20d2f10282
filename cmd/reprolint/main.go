// reprolint statically enforces the repo's contracts: the 0 allocs/ref
// hot loop (//repro:hotpath), byte-identical deterministic output
// (//repro:deterministic), and the obs metrics discipline. It is the
// compile-time half of the enforcement story; the dynamic half is the
// AllocsPerRun pins and the jobs-determinism smokes in CI.
//
// Usage:
//
//	go run ./cmd/reprolint ./...
//	go run ./cmd/reprolint -json ./internal/sim/...
//	go run ./cmd/reprolint -timing ./...
//
// The hot-path allocation facts come from the compiler: reprolint runs
// `go list -export -gcflags=-m` over the packages the hot paths reach,
// so the go command must be on PATH.
//
// Exit status: 0 when the tree is clean (or for -h), 1 on findings, 2
// on usage or load errors or a failed compiler pass. Every
// //repro:allow suppression that was exercised is reported so waivers
// stay visible. -timing prints the wall time of the compiler pass and
// of each analyzer to stderr so lint cost stays a visible, bounded
// quantity.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonReport is the -json output schema (stable; consumed by editor
// integrations and the golden test).
type jsonReport struct {
	Diagnostics []jsonDiag  `json:"diagnostics"`
	Allowances  []jsonAllow `json:"allowances"`
}

type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type jsonAllow struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Reason string `json:"reason"`
	Count  int    `json:"count"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reprolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of text")
	dir := fs.String("C", ".", "run as if invoked from this directory")
	timing := fs.Bool("timing", false, "print compiler-pass and per-analyzer wall time to stderr")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: reprolint [-json] [-timing] [-C dir] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}

	// Paths are reported relative to the module root so output is
	// stable regardless of checkout location.
	rel := func(filename string) string {
		if r, err := filepath.Rel(prog.ModDir, filename); err == nil {
			return filepath.ToSlash(r)
		}
		return filename
	}

	res, err := prog.Analyze()
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}

	if *timing {
		var total time.Duration
		for _, tm := range res.Timings {
			fmt.Fprintf(stderr, "reprolint: %-18s %8.1fms\n", tm.Analyzer, float64(tm.Elapsed.Microseconds())/1000)
			total += tm.Elapsed
		}
		fmt.Fprintf(stderr, "reprolint: %-18s %8.1fms\n", "total", float64(total.Microseconds())/1000)
	}

	if *jsonOut {
		rep := jsonReport{Diagnostics: []jsonDiag{}, Allowances: []jsonAllow{}}
		for _, d := range res.Diags {
			rep.Diagnostics = append(rep.Diagnostics, jsonDiag{
				File: rel(d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		for _, a := range res.Allowances {
			rep.Allowances = append(rep.Allowances, jsonAllow{
				File: rel(a.Pos.Filename), Line: a.Pos.Line, Reason: a.Reason, Count: a.Count,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
	} else {
		for _, d := range res.Diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
		if len(res.Allowances) > 0 {
			fmt.Fprintf(stdout, "%d //repro:allow suppression(s) in effect:\n", len(res.Allowances))
			for _, a := range res.Allowances {
				fmt.Fprintf(stdout, "  %s:%d: %s (suppressed %d)\n", rel(a.Pos.Filename), a.Pos.Line, a.Reason, a.Count)
			}
		}
		if len(res.Diags) > 0 {
			fmt.Fprintf(stdout, "%d finding(s).\n", len(res.Diags))
		}
	}

	if len(res.Diags) > 0 {
		return 1
	}
	return 0
}
