// Command attacklab runs the three active attacks of the survey's §2.3
// threat model — spoofing, splicing, replay — against one registered
// engine, optionally paired with a registered authenticator, and prints
// the TamperOutcome table:
//
//	attacklab -engine xom            # confidentiality only: all accepted
//	attacklab -engine xom+flat-mac   # spoof/splice blocked, replay accepted
//	attacklab -engine aegis+tree     # all three fail-stop
//
// The passive attacks (bus probing, ECB pattern analysis, Kuhn's cipher
// instruction search, IV rewrite leakage, the brute-force lifetime
// table) are experiments E4, E9, E13 and E15: survey -only E4,E9,E13,E15.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("attacklab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	engine := fs.String("engine", "", "tamper-test one engine[+authenticator] combination, e.g. xom, aegis+tree (authenticators: "+strings.Join(core.AuthKeys(), ", ")+")")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *engine == "" {
		fmt.Fprintln(stderr, "attacklab: -engine is required")
		fs.Usage()
		return 2
	}

	tbl, err := core.TamperTable(*engine)
	if err != nil {
		fmt.Fprintln(stderr, "attacklab:", err)
		return 1
	}
	fmt.Fprintln(stdout, tbl)
	return 0
}
