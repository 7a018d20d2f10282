package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/campaign"
)

var updateGolden = flag.Bool("update", false, "rewrite golden.json from the simulator at this commit")

// goldenDigests computes every pinned digest at the standard sizes: each
// simulator workload's single-op output at seed 1 and the survey tables.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, w := range sims {
		refs := standard.simRefs[w.name]
		r, err := w.op(1, refs, w.footprint(1, refs), w.observed, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		out[w.name] = r.digest
	}
	tables, err := campaign.RunSuite(standard.surveyIDs, standard.surveyRefs, 2)
	if err != nil {
		t.Fatal(err)
	}
	out["survey"] = tablesDigest(tables)
	return out
}

// TestGolden checks that the simulator still produces the pinned
// outputs, or rewrites them with -update.
func TestGolden(t *testing.T) {
	if testing.Short() && !*updateGolden {
		t.Skip("runs a full survey pass")
	}
	got := goldenDigests(t)
	if *updateGolden {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key, want := range pinned {
		if got[key] != want {
			t.Errorf("%s: digest %s, pinned %s", key, got[key], want)
		}
	}
	if len(got) != len(pinned) {
		t.Errorf("computed %d digests, golden.json pins %d", len(got), len(pinned))
	}
}
