// Command tracelab is the attack-forensics workbench: it re-runs one
// cell of the E21 active-adversary grid with the flight recorder
// installed and reconstructs, for every injected strike, the causal
// chain the aggregate table can't show —
//
//	tampered line → first bus crossing → verification → fail-stop trap
//
// printing the per-strike detection-latency breakdown E21 reports only
// as a mean. The reconstruction is self-verifying: the mean rebuilt
// from the event stream must equal the attack schedule's own
// accounting exactly (same integer sums, same division), and tracelab
// exits nonzero when it doesn't — so a passing run is evidence the
// trace is a faithful record, not a lookalike.
//
//	tracelab                          # tree authenticator, 16 strikes/10k refs
//	tracelab -authtree ctree -attack 4
//	tracelab -authtree flat-mac       # watch replay strikes go undetected
//	tracelab -o cell.json             # dump the trace for Perfetto
//	tracelab -check sweep-trace.json  # validate an exported trace file
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/obs/rec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracelab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	auth := fs.String("authtree", "tree", fmt.Sprintf("authenticator under attack: %s", strings.Join(core.AuthKeys(), ", ")))
	rate := fs.Float64("attack", 16, "strike rate in tampers per 10k references (must be > 0)")
	refs := fs.Int("refs", core.DefaultRefs, "trace length in references")
	ringCap := fs.Int("cap", 1<<20, "flight-recorder ring capacity in events")
	outPath := fs.String("o", "", "also write the recorded trace here (.csv = CSV, else Chrome JSON)")
	checkPath := fs.String("check", "", "validate an exported trace file instead of running a cell")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tracelab:", err)
		return 1
	}

	if *checkPath != "" {
		if err := check(stdout, *checkPath); err != nil {
			return fail(err)
		}
		return 0
	}
	if *rate <= 0 {
		return fail(fmt.Errorf("-attack must be > 0: forensics needs an adversary"))
	}

	rc := rec.New(*ringCap)
	rep, sched, err := core.E21Cell(*auth, *rate, *refs, rc)
	if err != nil {
		return fail(err)
	}
	st := rc.Seal(fmt.Sprintf("E21 auth=%s attack=%g refs=%d", *auth, *rate, *refs))

	if *outPath != "" {
		if err := rec.WriteFile(*outPath, &rec.Trace{Streams: []rec.Stream{st}}); err != nil {
			return fail(err)
		}
	}
	if st.Dropped > 0 {
		fmt.Fprintf(stderr, "tracelab: ring overflowed: %d events dropped; forensics may be incomplete (raise -cap)\n", st.Dropped)
	}

	chains := reconstruct(st.Events)
	print(stdout, *auth, *rate, rep.Cycles, chains)

	if err := crossCheck(chains, sched); err != nil {
		fmt.Fprintln(stderr, "tracelab: MISMATCH:", err)
		return 2
	}
	fmt.Fprintf(stdout, "cross-check: event-stream accounting matches attack.Schedule exactly (mean %.6g)\n", sched.MeanLatency())
	return 0
}

// chain is one injected strike's reconstructed life.
type chain struct {
	kind                       attack.TamperKind
	addr                       uint64
	strike                     uint64 // ref index at injection
	touch                      uint64 // ref of the line's first bus crossing after the strike
	verify                     uint64 // ref of its first verification
	trap                       uint64 // ref of the fail-stop event
	touched, verified, trapped bool
}

func (c *chain) latency() uint64 { return c.trap - c.strike }

// reconstruct rebuilds the per-strike chains from the event stream
// alone, mirroring the schedule's own bookkeeping: a strike opens a
// pending window on its line; the first fill or decipher of that line
// is the tampered bytes crossing the bus; the first verify is the
// authenticator's look; a trap closes the window (later traps at the
// same line are re-detections of an unrepaired line, not new
// detections — exactly the schedule's delete-on-first-trap rule).
func reconstruct(events []rec.Event) []*chain {
	pending := make(map[uint64]*chain)
	var chains []*chain
	for _, ev := range events {
		switch ev.Kind {
		case rec.KindStrike:
			if _, dup := pending[ev.Addr]; dup {
				continue
			}
			c := &chain{kind: attack.TamperKind(ev.Arg), addr: ev.Addr, strike: ev.Ref}
			pending[ev.Addr] = c
			chains = append(chains, c)
		case rec.KindFill, rec.KindDecipher:
			if c, ok := pending[ev.Addr]; ok && !c.touched {
				c.touch, c.touched = ev.Ref, true
			}
		case rec.KindVerify:
			if c, ok := pending[ev.Addr]; ok && !c.verified {
				c.verify, c.verified = ev.Ref, true
			}
		case rec.KindTrap:
			if c, ok := pending[ev.Addr]; ok {
				c.trap, c.trapped = ev.Ref, true
				delete(pending, ev.Addr)
			}
		}
	}
	return chains
}

func print(w io.Writer, auth string, rate float64, cycles uint64, chains []*chain) {
	fmt.Fprintf(w, "tracelab: auth=%s attack=%g/10k, %d strikes injected, %d cycles simulated\n\n",
		auth, rate, len(chains), cycles)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "strike\tkind\tline\tinject@\ttouch@\tverify@\ttrap@\tlatency")
	for i, c := range chains {
		row := func(ref uint64, seen bool) string {
			if !seen {
				return "-"
			}
			return fmt.Sprint(ref)
		}
		lat := "undetected"
		if c.trapped {
			lat = fmt.Sprint(c.latency())
		}
		fmt.Fprintf(tw, "#%d\t%s\t0x%08x\t%d\t%s\t%s\t%s\t%s\n",
			i, c.kind, c.addr, c.strike,
			row(c.touch, c.touched), row(c.verify, c.verified), row(c.trap, c.trapped), lat)
	}
	tw.Flush()

	// The per-kind breakdown: which tamper forms this authenticator
	// actually closes, and how fast.
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\tinjected\tdetected\tmean-lat\tmax-lat")
	for _, k := range attack.AllKinds {
		var inj, det, sum, max uint64
		for _, c := range chains {
			if c.kind != k {
				continue
			}
			inj++
			if c.trapped {
				det++
				sum += c.latency()
				if c.latency() > max {
					max = c.latency()
				}
			}
		}
		mean := "-"
		if det > 0 {
			mean = fmt.Sprintf("%.1f", float64(sum)/float64(det))
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\n", k, inj, det, mean, max)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// crossCheck compares the stream-rebuilt accounting against the
// schedule's own counters, field by field, down to the last bit of the
// mean's float division.
func crossCheck(chains []*chain, sched *attack.Schedule) error {
	var det, sum, max uint64
	var byKind, detByKind [3]uint64
	for _, c := range chains {
		byKind[c.kind]++
		if c.trapped {
			det++
			sum += c.latency()
			if c.latency() > max {
				max = c.latency()
			}
			detByKind[c.kind]++
		}
	}
	if got, want := uint64(len(chains)), sched.Injected; got != want {
		return fmt.Errorf("injected: stream %d, schedule %d", got, want)
	}
	if det != sched.Detected {
		return fmt.Errorf("detected: stream %d, schedule %d", det, sched.Detected)
	}
	if byKind != sched.ByKind || detByKind != sched.DetectedByKind {
		return fmt.Errorf("per-kind split: stream %v/%v, schedule %v/%v",
			byKind, detByKind, sched.ByKind, sched.DetectedByKind)
	}
	if max != sched.MaxLatency {
		return fmt.Errorf("max latency: stream %d, schedule %d", max, sched.MaxLatency)
	}
	var mean float64
	if det > 0 {
		mean = float64(sum) / float64(det)
	}
	if mean != sched.MeanLatency() {
		return fmt.Errorf("mean latency: stream %g, schedule %g", mean, sched.MeanLatency())
	}
	return nil
}

// check decodes and validates an exported trace file, printing a
// per-stream inventory.
func check(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tr, err := rec.DecodeChrome(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := rec.Validate(tr); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: valid, %d streams, %d events, %d dropped\n", path, len(tr.Streams), tr.Len(), tr.Dropped())
	for _, st := range tr.Streams {
		counts := make(map[rec.Kind]int)
		for _, ev := range st.Events {
			counts[ev.Kind]++
		}
		var parts []string
		for _, k := range slices.Sorted(maps.Keys(counts)) {
			parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
		}
		fmt.Fprintf(w, "  %-40s %6d events  %s\n", st.Track, len(st.Events), strings.Join(parts, " "))
	}
	return nil
}
