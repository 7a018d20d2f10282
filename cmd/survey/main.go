// Command survey prints the experiment suite (E1-E22): the survey's
// comparison table, every quantitative claim reproduced on the
// simulated SoC, and the extension experiments. -jobs N runs them on N
// campaign workers; tables print in suite order, or in the order -only
// lists them (-only E1,E6,E17), and -refs trades accuracy for speed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("survey", flag.ContinueOnError)
	fs.SetOutput(stderr)
	refs := fs.Int("refs", core.DefaultRefs, "trace length per simulation")
	only := fs.String("only", "", "run only these experiments, comma-separated ids (e.g. E6 or E1,e17)")
	jobs := fs.Int("jobs", campaign.DefaultJobs(), "experiment scheduler worker count")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	// RunSuite checks every id before it runs anything.
	tables, err := campaign.RunSuite(campaign.ParseList(*only), *refs, *jobs)
	for _, t := range tables {
		fmt.Fprintln(stdout, t)
	}
	if err != nil {
		fmt.Fprintln(stderr, "survey:", err)
		return 1
	}
	return 0
}
