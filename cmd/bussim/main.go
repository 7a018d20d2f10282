// Command bussim runs one bus-encryption configuration against one
// workload on the simulated SoC and reports the cycle accounting
// against the plaintext baseline. The workload is consumed as a stream:
// references are generated on the fly, so memory stays constant however
// long the trace — -refs 100000000 is bounded by time, not RAM. The
// workload's knobs are its core.WorkloadProfile, the mix the experiment
// suite and sweep measure under the same name; a knob flag overrides
// only that knob.
//
//	bussim -engine aegis -workload pointer-chase -refs 100000
//	bussim -engine gilmont -workload code-only -jump 0.02 -codesize 8192
//	bussim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bussim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	engineKey := fs.String("engine", "aegis", "surveyed engine key (see -list)")
	workload := fs.String("workload", "sequential", "workload generator name")
	refs := fs.Int("refs", 100000, "trace length")
	jump := fs.Float64("jump", 0, "jump rate (code workloads; default: the workload's profile)")
	writes := fs.Float64("writes", 0, "write fraction (data workloads; default: the workload's profile)")
	loads := fs.Float64("loads", 0, "data-access fraction (default: the workload's profile)")
	locality := fs.Float64("locality", 0, "data locality (default: the workload's profile)")
	codeSize := fs.Uint64("codesize", 0, "code footprint in bytes (default: the workload's profile)")
	seed := fs.Int64("seed", 1, "trace seed")
	list := fs.Bool("list", false, "list engines and workloads, then exit")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "engines:")
		for _, e := range core.Survey() {
			fmt.Fprintf(stdout, "  %-8s %s (%s, %s)\n", e.Key, e.Name, e.Cipher, e.Origin)
		}
		fmt.Fprintln(stdout, "workloads:")
		for _, n := range slices.Sorted(maps.Keys(trace.Sources)) {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}

	cfg, ok := core.WorkloadProfile(*workload, *refs)
	if !ok {
		fmt.Fprintf(stderr, "bussim: unknown workload %q (try -list)\n", *workload)
		return 1
	}
	cfg.Seed = *seed
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "jump":
			cfg.JumpRate = *jump
		case "writes":
			cfg.WriteFraction = *writes
		case "loads":
			cfg.LoadFraction = *loads
		case "locality":
			cfg.Locality = *locality
		case "codesize":
			cfg.CodeSize = *codeSize
		}
	})
	src := trace.Sources[*workload](cfg)

	entry, err := core.Entry(*engineKey)
	if err != nil {
		fmt.Fprintln(stderr, "bussim:", err)
		return 1
	}
	eng, err := entry.Build()
	if err != nil {
		fmt.Fprintln(stderr, "bussim:", err)
		return 1
	}

	base, with, err := soc.Baselines{}.Compare(soc.DefaultConfig(), eng, src)
	if err != nil {
		fmt.Fprintln(stderr, "bussim:", err)
		return 1
	}

	fmt.Fprintf(stdout, "engine     : %s (%s, %s)\n", entry.Name, entry.Cipher, entry.ModeDesc)
	fmt.Fprintf(stdout, "area       : %d gate equivalents\n", eng.Gates())
	fmt.Fprintf(stdout, "workload   : %s (%d refs, %d instructions)\n", src.Label(), with.Refs, with.Instructions)
	fmt.Fprintf(stdout, "baseline   : %d cycles (CPI %.2f)\n", base.Cycles, base.CPI())
	fmt.Fprintf(stdout, "with engine: %d cycles (CPI %.2f)\n", with.Cycles, with.CPI())
	fmt.Fprintf(stdout, "overhead   : %.2f%%\n", 100*with.OverheadVs(base))
	fmt.Fprintf(stdout, "engine stalls: %d cycles (%.1f%% of total)\n",
		with.EngineStalls, 100*float64(with.EngineStalls)/float64(with.Cycles))
	fmt.Fprintf(stdout, "cache      : %.2f%% miss rate, %d writebacks, %d flushed at end\n",
		100*with.Cache.MissRate(), with.Cache.Writebacks, with.FlushedLines)
	fmt.Fprintf(stdout, "bus        : %d transactions, %d bytes\n", with.BusTxns, with.BusBytes)
	if with.RMWEvents > 0 {
		fmt.Fprintf(stdout, "RMW events : %d (sub-block writes)\n", with.RMWEvents)
	}
	return 0
}
