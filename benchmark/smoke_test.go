package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/edu"
)

// tiny shrinks every op so the smoke test runs each workload and each
// traced ladder in well under a second.
var tiny = sizes{
	simRefs:    map[string]int{"aegis-seq": 300, "plain-l2-chase": 3000, "verified-firmware": 2000},
	surveyRefs: 500,
	surveyIDs:  []string{"E4", "E13"},
	sweepRefs:  []int{200},
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes: it
// keeps the benchmark building and its checks passing as the code under
// it changes.
func TestSmoke(t *testing.T) {
	statusOut = io.Discard
	defer func() { statusOut = os.Stderr }()
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := runOne(name, 1, 0.01, traced, tiny)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d ops failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer(tiny)
			}
			var want, got []string
			for _, d := range defs {
				want = append(want, d.Name)
			}
			for k := range res.Metrics {
				got = append(got, k)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", name, traced, got, want)
			}
		}
	}
	if _, err := runOne("no-such-workload", 1, 1, false, tiny); err == nil {
		t.Error("an unknown workload ran")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	js, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(js, &spec); err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		whys = append(whys, w.Why)
	}
	var wantWhys []string
	for _, w := range workloads() {
		wantWhys = append(wantWhys, w.why)
	}
	if !slices.Equal(names, workloadNames()) || !slices.Equal(whys, wantWhys) {
		t.Errorf("workloads %v %q, want %v %q", names, whys, workloadNames(), wantWhys)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, want %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer(standard)) {
		t.Errorf("per_layer %+v, want %+v", spec.PerLayer, perLayer(standard))
	}
}

// TestReplayMatchesSweep: the sweepd oracle replays specs task by task
// on one store shared across specs; each CSV must still be what the
// sweep CLI prints for the spec alone, EmitCSV of Sweep(spec, 1).
func TestReplayMatchesSweep(t *testing.T) {
	store := campaign.NewStore()
	for _, op := range sweepPlan(3, 6, tiny.sweepRefs)[0] {
		if op.spec == nil {
			continue
		}
		got, err := replay(op.spec, store, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := campaign.Sweep(*op.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := campaign.EmitCSV(&want, rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: replay CSV differs from Sweep's:\n%s\nwant:\n%s", specKey(op.spec), got, want.Bytes())
		}
	}
}

type sizedNull struct{ edu.Null }

func (sizedNull) TransferBytes(_ uint64, lineBytes int) int { return lineBytes / 2 }

// TestWrapEngineKeepsTransferSizer: the SoC sizes bus transfers through
// a type assertion, so the timing decorator must keep the extension.
func TestWrapEngineKeepsTransferSizer(t *testing.T) {
	var sp spans
	ts, ok := wrapEngine(sizedNull{}, &sp).(edu.TransferSizer)
	if !ok || ts.TransferBytes(0, 32) != 16 {
		t.Fatalf("wrapped TransferSizer lost: ok=%v", ok)
	}
	if _, ok := wrapEngine(edu.Null{}, &sp).(edu.TransferSizer); ok {
		t.Fatal("wrapping an engine without TransferBytes added it")
	}
}
