package campaign

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math/big"
	"reflect"
	"strings"
	"testing"
)

// keysOf is the grid a spec expands to, as the ordered Key() list — the
// identity the round-trip tests compare.
func keysOf(t *testing.T, spec Spec) []string {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	tasks := spec.Expand()
	keys := make([]string, len(tasks))
	for i, task := range tasks {
		keys[i] = task.Cfg.Key()
	}
	return keys
}

func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		{}, // all defaults
		{Engines: []string{"aegis", "xom"}},
		{Engines: []string{"gi"}, Workloads: []string{"sequential", "firmware"},
			Refs: []int{1000, 2000}},
		{CacheSizes: []int{4 << 10, 64 << 10}, L2Sizes: []int{0, 64 << 10},
			LineSizes: []int{16, 64}, BusWidths: []int{8}},
		{Auths: []string{"tree", "ctree"}, AttackRates: []float64{0, 2.5}},
		{Placements: []string{"default", "l1-l2"}, L2Sizes: []int{64 << 10}},
	}
	for i, spec := range specs {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := ParseSpecJSON(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if got, want := keysOf(t, decoded), keysOf(t, spec); !reflect.DeepEqual(got, want) {
			t.Errorf("spec %d: decoded grid differs\ngot  %d keys %v\nwant %d keys %v",
				i, len(got), got, len(want), want)
		}
	}
}

func TestSpecJSONRoundTripIsStableOnFilledSpec(t *testing.T) {
	// A validated (default-filled) spec — the form a Report carries and
	// a checkpointed service re-serializes — round-trips to the exact
	// same filled axes, not just the same expansion.
	spec := Spec{Engines: []string{"xom"}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(spec)
	decoded, err := ParseSpecJSON(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, spec) {
		t.Errorf("filled spec mutated in round trip:\ngot  %+v\nwant %+v", decoded, spec)
	}
}

func TestParseSpecJSONRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"not json", `{engines}`, "parsing spec"},
		{"unknown field", `{"engine":["aegis"]}`, "unknown field"},
		{"typoed axis", `{"cachesizes":[4096]}`, "unknown field"},
		{"trailing data", `{"engines":["aegis"]} {"engines":["xom"]}`, "trailing data"},
		{"unknown engine", `{"engines":["warp-drive"]}`, "unknown engine"},
		{"unknown workload", `{"workloads":["fortnite"]}`, "unknown workload"},
		{"zero refs", `{"refs":[0]}`, "non-positive refs"},
		{"negative refs", `{"refs":[-5]}`, "non-positive refs"},
		{"bad placement", `{"placements":["l3-dram"]}`, "placement"},
		{"negative attack rate", `{"attack_rates":[-1]}`, "attack rate"},
		{"wrong type", `{"refs":"60000"}`, "parsing spec"},
		{"array not object", `[1,2,3]`, "parsing spec"},
	}
	for _, tc := range cases {
		_, err := ParseSpecJSON(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %q, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestParseSpecJSONEmptyObjectsAndLists(t *testing.T) {
	// `{}` and explicit empty axes both mean "defaults" — an empty list
	// is not a zero-point grid.
	for _, in := range []string{`{}`, `{"engines":[],"refs":[]}`, `{"engines":null}`} {
		spec, err := ParseSpecJSON(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if len(spec.Engines) == 0 || spec.Size() == 0 {
			t.Errorf("%s: defaults not filled: %+v", in, spec)
		}
	}
	// Empty input is an error, not an empty grid.
	if _, err := ParseSpecJSON(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ParseSpecJSON(io.LimitReader(strings.NewReader(`{"engines"`), 10)); err == nil {
		t.Error("truncated input accepted")
	}
}

// TestSpecFlagsMatchJSON pins the satellite contract: the CLI axis
// flags and the service's JSON payload build the same grid.
func TestSpecFlagsMatchJSON(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sf := RegisterSpecFlags(fs)
	if err := fs.Parse([]string{
		"-engines", "aegis,xom",
		"-workloads", "sequential",
		"-refs", "2K",
		"-cache", "4K,16K",
		"-l2", "0,64K",
		"-placement", "default",
		"-line", "32",
		"-bus", "8",
		"-authtree", "tree",
		"-attack", "0.5",
	}); err != nil {
		t.Fatal(err)
	}
	if sf.Empty() {
		t.Fatal("Empty() true after setting every axis")
	}
	fromFlags, err := sf.Spec()
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ParseSpecJSON(strings.NewReader(`{
		"engines":["aegis","xom"], "workloads":["sequential"], "refs":[2048],
		"cache_sizes":[4096,16384], "l2_sizes":[0,65536], "placements":["default"],
		"line_sizes":[32], "bus_widths":[8], "auths":["tree"], "attack_rates":[0.5]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keysOf(t, fromFlags), keysOf(t, fromJSON); !reflect.DeepEqual(got, want) {
		t.Errorf("flag grid != JSON grid\nflags %v\njson  %v", got, want)
	}
}

func TestSpecFlagsEmptyAndErrors(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sf := RegisterSpecFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !sf.Empty() {
		t.Error("Empty() false with no axis flags set")
	}
	spec, err := sf.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Engines) != 0 {
		t.Error("flagless Spec should leave axes empty (defaults fill at Validate)")
	}

	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	sf2 := RegisterSpecFlags(fs2)
	if err := fs2.Parse([]string{"-refs", "sixty-thousand"}); err != nil {
		t.Fatal(err)
	}
	if sf2.Empty() {
		t.Error("Empty() true with -refs set")
	}
	if _, err := sf2.Spec(); err == nil {
		t.Error("bad -refs value accepted")
	}
}

// FuzzParseSpecJSON holds every spec ParseSpecJSON accepts to two
// properties: it re-encodes to JSON that parses back to an equal spec,
// and Size is the exact product of its axis lengths. The seed corpus is
// testdata/fuzz/FuzzParseSpecJSON.
func FuzzParseSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		spec, err := ParseSpecJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := ParseSpecJSON(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip changed the spec:\ngot  %+v\nwant %+v", again, spec)
		}
		// Every Spec field is an axis, so the product runs over all of
		// them: an axis Size forgets fails here.
		want := big.NewInt(1)
		v := reflect.ValueOf(spec)
		for i := range v.NumField() {
			want.Mul(want, big.NewInt(int64(v.Field(i).Len())))
		}
		if got := spec.Size(); !want.IsInt64() || want.Int64() != int64(got) {
			t.Fatalf("Size = %d, want the product of the axis lengths %s", got, want)
		}
	})
}
