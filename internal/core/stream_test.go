package core

import (
	"testing"

	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// Streaming is not allowed to change a single measured number: for
// every registered engine, driving soc.Baselines.Compare with a
// streaming RefSource must produce reports identical to driving it with
// the materialized *trace.Trace built from the same trace.Config.
func TestStreamingReportsMatchMaterializedForAllEngines(t *testing.T) {
	tcfg := trace.Config{
		Refs: 6000, Seed: 41,
		LoadFraction: 0.35, WriteFraction: 0.3, JumpRate: 0.03, Locality: 0.7,
	}
	for _, entry := range Survey() {
		t.Run(entry.Key, func(t *testing.T) {
			engM, err := entry.Build()
			if err != nil {
				t.Fatal(err)
			}
			baseM, withM, err := soc.Baselines{}.Compare(soc.DefaultConfig(), engM, trace.Drain(trace.SequentialSource(tcfg)))
			if err != nil {
				t.Fatal(err)
			}

			engS, err := entry.Build() // fresh state: engines are stateful
			if err != nil {
				t.Fatal(err)
			}
			baseS, withS, err := soc.Baselines{}.Compare(soc.DefaultConfig(), engS, trace.SequentialSource(tcfg))
			if err != nil {
				t.Fatal(err)
			}

			if baseM != baseS {
				t.Errorf("baseline reports differ:\n materialized %+v\n streaming    %+v", baseM, baseS)
			}
			if withM != withS {
				t.Errorf("engine reports differ:\n materialized %+v\n streaming    %+v", withM, withS)
			}
		})
	}
}
