package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

func TestSurveyRegistryComplete(t *testing.T) {
	entries := Survey()
	if len(entries) != 8 {
		t.Fatalf("survey has %d entries, want 8", len(entries))
	}
	keys := map[string]bool{}
	for _, e := range entries {
		if e.Key == "" || e.Name == "" || e.Origin == "" || e.Cipher == "" {
			t.Errorf("entry %q incomplete: %+v", e.Key, e)
		}
		if keys[e.Key] {
			t.Errorf("duplicate key %q", e.Key)
		}
		keys[e.Key] = true
		eng, err := e.Build()
		if err != nil {
			t.Errorf("%s: Build failed: %v", e.Key, err)
			continue
		}
		if eng.Name() == "" {
			t.Errorf("%s: engine has no name", e.Key)
		}
	}
	for _, want := range []string{"best", "vlsi", "gi", "ds5002", "ds5240", "gilmont", "xom", "aegis"} {
		if !keys[want] {
			t.Errorf("missing surveyed design %q", want)
		}
	}
}

func TestEntryLookup(t *testing.T) {
	e, err := Entry("aegis")
	if err != nil || e.Key != "aegis" {
		t.Errorf("Entry(aegis): %v, %v", e.Key, err)
	}
	_, err = Entry("nonsense")
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	_, known, _ := strings.Cut(strings.TrimSuffix(err.Error(), ")"), "(known: ")
	var keys []string
	for _, e := range Survey() {
		keys = append(keys, e.Key)
	}
	if !slices.Equal(strings.Split(known, ", "), keys) {
		t.Errorf("unknown-key error %q must list every registered engine %v", err, keys)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustEntry on bad key did not panic")
		}
	}()
	MustEntry("nonsense")
}

func TestBuildReturnsFreshEngines(t *testing.T) {
	e := MustEntry("gilmont")
	a, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("Build returned a shared instance; engines are stateful")
	}
}

func TestWorkloadsSet(t *testing.T) {
	ws := WorkloadSources(1000)
	if len(ws) != 5 {
		t.Fatalf("%d workloads", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		if n := len(trace.Drain(w).Refs); n != 1000 {
			t.Errorf("%s: %d refs", w.Label(), n)
		}
		names[w.Label()] = true
	}
	if !names["code-only"] || !names["pointer-chase"] {
		t.Error("expected workload names missing")
	}
}

// The workload registry (trace.Sources) and the knob table
// (WorkloadProfile) must name the same workloads: a name missing from
// either would otherwise surface only when a sweep reaches it.
func TestWorkloadRegistriesMatch(t *testing.T) {
	for name := range trace.Sources {
		if _, ok := WorkloadProfile(name, 100); !ok {
			t.Errorf("trace.Sources workload %q has no WorkloadProfile", name)
		}
	}
	for name := range profiles {
		if _, ok := trace.Sources[name]; !ok {
			t.Errorf("WorkloadProfile %q is not a trace.Sources workload", name)
		}
	}
}

func TestCompareOverheadPositiveForCostlyEngine(t *testing.T) {
	eng, err := MustEntry("gi").Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.SequentialSource(trace.Config{Refs: 5000, Seed: 1, LoadFraction: 0.4, WriteFraction: 0.3})
	base, with, err := soc.Baselines{}.Compare(soc.DefaultConfig(), eng, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ov := with.OverheadVs(base); ov <= 0 {
		t.Errorf("GI overhead %v, want > 0", ov)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID: "EX", Title: "demo", PaperClaim: "claim",
		Header: []string{"col-a", "b"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("value", 3.14159)
	tbl.AddRow(42, "x")
	s := tbl.String()
	for _, want := range []string{"== EX: demo ==", "paper: claim", "col-a", "3.142", "42", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}
