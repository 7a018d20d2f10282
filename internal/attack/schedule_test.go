package attack

import (
	"testing"

	"repro/internal/edu/products"
	"repro/internal/sim/authtree"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// firmwareRun assembles an AEGIS system (counter-mode: writebacks
// produce fresh ciphertext, so replay is meaningful) with the given
// authenticator, drives the firmware workload under an attack schedule,
// and returns the schedule and report.
func firmwareRun(t *testing.T, auth string, rate float64, refs int) (*Schedule, soc.Report) {
	t.Helper()
	eng, err := products.AEGIS([]byte("0123456789abcdef"), 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Engine = eng
	switch auth {
	case "none":
	case "tree", "ctree":
		variant := authtree.HashTree
		if auth == "ctree" {
			variant = authtree.CounterTree
		}
		cfg.Verifier, err = authtree.New(authtree.Config{
			Key: []byte("0123456789abcdef"), LineBytes: 32,
			Regions: []authtree.Region{
				{Base: 0, Bytes: 1 << 20},
				{Base: 0x4000_0000, Bytes: 1 << 20},
			},
			NodeCacheBytes: 4 << 10, Variant: variant,
		})
	case "flat-mac":
		cfg.Verifier, err = authtree.NewFlat(authtree.FlatConfig{Key: []byte("0123456789abcdef")})
	default:
		t.Fatalf("unknown auth %q", auth)
	}
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(ScheduleConfig{Seed: 99, PerTenK: rate, LineBytes: 32})
	cfg.Intruder = sched
	s, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := trace.FirmwareSource(trace.Config{
		Refs: refs, Seed: 42, LoadFraction: 0.35, WriteFraction: 0.4, JumpRate: 0.03, Locality: 0.5,
	})
	return sched, s.Run(src)
}

// Under a tree authenticator, a sustained attack campaign must be
// substantially detected; under a confidentiality-only system, nothing
// is ever detected.
func TestScheduleDetection(t *testing.T) {
	sched, rep := firmwareRun(t, "tree", 8, 60000)
	if sched.Injected == 0 {
		t.Fatal("schedule never injected a tamper")
	}
	if sched.DetectionRate() < 0.5 {
		t.Errorf("detection rate %.2f (detected %d of %d), want >= 0.5",
			sched.DetectionRate(), sched.Detected, sched.Injected)
	}
	if sched.Detected > 0 && sched.MeanLatency() <= 0 {
		t.Error("detections recorded but zero mean latency")
	}
	if rep.AuthViolations < sched.Detected {
		t.Errorf("report violations %d < schedule detections %d", rep.AuthViolations, sched.Detected)
	}

	none, noneRep := firmwareRun(t, "none", 8, 60000)
	if none.Injected == 0 {
		t.Fatal("schedule never injected against the unprotected system")
	}
	if none.Detected != 0 || noneRep.AuthViolations != 0 {
		t.Errorf("confidentiality-only system detected %d tampers, want 0", none.Detected)
	}
}

// flat-mac must detect strictly fewer strikes than a root-anchored
// tree under the same schedule: the delta is the replay kind.
func TestFlatMACMissesReplay(t *testing.T) {
	flat, _ := firmwareRun(t, "flat-mac", 8, 60000)
	tree, _ := firmwareRun(t, "tree", 8, 60000)
	if flat.DetectedByKind[KindReplay] != 0 {
		t.Errorf("flat-mac detected %d replays, want 0 (no freshness)", flat.DetectedByKind[KindReplay])
	}
	if tree.ByKind[KindReplay] > 0 && tree.DetectedByKind[KindReplay] == 0 {
		t.Errorf("tree detected no replays out of %d injected", tree.ByKind[KindReplay])
	}
	if tree.DetectedByKind[KindSpoof] == 0 || tree.DetectedByKind[KindSplice] == 0 {
		t.Errorf("tree detections by kind = %v, want every kind represented", tree.DetectedByKind)
	}
}

// Equal seeds must strike identically: the schedule is part of the
// campaign's byte-identical determinism contract.
func TestScheduleDeterminism(t *testing.T) {
	a, repA := firmwareRun(t, "ctree", 4, 40000)
	b, repB := firmwareRun(t, "ctree", 4, 40000)
	if a.Injected != b.Injected || a.Detected != b.Detected ||
		a.MeanLatency() != b.MeanLatency() || a.MaxLatency != b.MaxLatency {
		t.Errorf("schedule diverged across identical runs: %+v vs %+v",
			[4]float64{float64(a.Injected), float64(a.Detected), a.MeanLatency(), float64(a.MaxLatency)},
			[4]float64{float64(b.Injected), float64(b.Detected), b.MeanLatency(), float64(b.MaxLatency)})
	}
	if repA.Cycles != repB.Cycles {
		t.Errorf("cycles diverged: %d vs %d", repA.Cycles, repB.Cycles)
	}
}

// A zero-rate schedule must be inert.
func TestZeroRateScheduleIsInert(t *testing.T) {
	sched, rep := firmwareRun(t, "tree", 0, 20000)
	if sched.Injected != 0 {
		t.Errorf("zero-rate schedule injected %d tampers", sched.Injected)
	}
	if rep.AuthViolations != 0 {
		t.Errorf("zero-rate run reported %d violations", rep.AuthViolations)
	}
}
