// Command attacklab runs the attack suite of the survey's §2.3 threat
// model: bus probing of an unprotected system, ECB pattern analysis,
// Kuhn's cipher instruction search against the DS5002FP model, IV
// rewrite leakage, and the brute-force lifetime table.
//
// With -engine, it instead runs the three active attacks — spoofing,
// splicing, replay — against any registered engine, optionally paired
// with a registered authenticator, and prints the TamperOutcome table:
//
//	attacklab -engine xom            # confidentiality only: all accepted
//	attacklab -engine xom+flat-mac   # spoof/splice blocked, replay accepted
//	attacklab -engine aegis+tree     # all three fail-stop
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("attacklab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "run a single experiment: e4, e9, e13 or e15 (default: all)")
	engine := fs.String("engine", "", "tamper-test one engine[+authenticator] combination, e.g. xom, aegis+tree (authenticators: "+strings.Join(core.AuthKeys(), ", ")+")")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *engine != "" {
		if *only != "" {
			// Conflicting modes are an error, not a silent preference.
			fmt.Fprintln(stderr, "attacklab: -engine runs the tamper table only; drop -only")
			return 1
		}
		tbl, err := core.TamperTable(*engine)
		if err != nil {
			fmt.Fprintln(stderr, "attacklab:", err)
			return 1
		}
		fmt.Fprintln(stdout, tbl)
		return 0
	}

	// The passive attacks are the registry's E4, E9, E13 and E15.
	ids := []string{"e4", "e9", "e13", "e15"}
	if *only != "" {
		if !slices.Contains(ids, *only) {
			fmt.Fprintf(stderr, "attacklab: unknown experiment %q (want e4, e9, e13 or e15)\n", *only)
			return 1
		}
		ids = []string{*only}
	}
	tables, err := campaign.RunSuite(ids, core.DefaultRefs, 1)
	for _, tbl := range tables {
		fmt.Fprintln(stdout, tbl)
	}
	if err != nil {
		fmt.Fprintln(stderr, "attacklab:", err)
		return 1
	}
	return 0
}
