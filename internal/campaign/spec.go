// Package campaign is the batch experiment-sweep engine: it expands a
// declarative grid spec (engines × authenticators × attack rates × EDU
// placements × workloads × cache hierarchies × bus widths × trace
// lengths) into tasks, runs them on a bounded worker pool with
// deterministic per-task RNG sharding, caches shared plaintext
// baselines so each (geometry, workload) point is simulated once
// rather than once per protection configuration, and aggregates the
// results into ranked summaries with JSON/CSV/table emitters.
//
// Determinism is the subsystem's contract: every task derives its trace
// seed from a stable hash of its configuration (excluding the engine,
// so all engines at one grid point share a trace and a baseline), and
// results are slotted by task index, so a `-jobs 8` sweep emits bytes
// identical to a `-jobs 1` sweep.
//
//repro:deterministic
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/edu"
	"repro/internal/sim/trace"
)

// Spec is the declarative grid: the cross product of every non-empty
// axis is the campaign's task list. Zero-value axes get defaults from
// (*Spec).Fill.
type Spec struct {
	// Engines are survey registry keys (core.Entry); default all.
	Engines []string `json:"engines"`
	// Workloads are trace generator names (trace.Generators); default
	// the standard five-workload set.
	Workloads []string `json:"workloads"`
	// Refs are trace lengths to sweep; default {core.DefaultRefs}.
	Refs []int `json:"refs"`
	// CacheSizes are L1 cache capacities in bytes; default {16 KiB}.
	CacheSizes []int `json:"cache_sizes"`
	// L2Sizes are second-level cache capacities in bytes; 0 means no L2
	// (the single-level system). Default {0}. Like Placements, the axis
	// stays outside the engine-independent point key, so every depth at
	// a grid point measures the same trace; the plaintext baseline is
	// keyed per (point, L2) because an L2 changes baseline cycles.
	L2Sizes []int `json:"l2_sizes"`
	// LineSizes are cache line sizes in bytes; default {32}.
	LineSizes []int `json:"line_sizes"`
	// BusWidths are external bus widths in bytes; default {4}.
	BusWidths []int `json:"bus_widths"`
	// Auths are authenticator keys (core.Authenticators: none,
	// flat-mac, flat-fresh, tree, ctree); default {"none"}. Every
	// authenticator composes with every engine — a separate axis, not
	// an engine variant.
	Auths []string `json:"auths"`
	// AttackRates are active-adversary strike rates in tampers per
	// 10,000 references (internal/attack.Schedule); default {0} (no
	// adversary). Nonzero rates populate the detection-rate and
	// detection-latency columns.
	AttackRates []float64 `json:"attack_rates"`
	// Placements are EDU/verifier boundaries (edu.ParsePlacement:
	// "default", "cpu-l1", "l1-l2", "l2-dram"); default {""} (the
	// outermost boundary of whatever hierarchy the point has). A
	// placement that requires an L2 fails its single-level cells, not
	// the sweep. Protection-side like Auths: outside the point key.
	Placements []string `json:"placements"`
}

// Fill applies defaults to empty axes.
func (s *Spec) Fill() {
	if len(s.Engines) == 0 {
		for _, e := range core.Survey() {
			s.Engines = append(s.Engines, e.Key)
		}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = WorkloadNames()
	}
	if len(s.Refs) == 0 {
		s.Refs = []int{core.DefaultRefs}
	}
	if len(s.CacheSizes) == 0 {
		s.CacheSizes = []int{16 << 10}
	}
	if len(s.L2Sizes) == 0 {
		s.L2Sizes = []int{0}
	}
	if len(s.LineSizes) == 0 {
		s.LineSizes = []int{32}
	}
	if len(s.BusWidths) == 0 {
		s.BusWidths = []int{4}
	}
	if len(s.Auths) == 0 {
		s.Auths = []string{"none"}
	}
	if len(s.AttackRates) == 0 {
		s.AttackRates = []float64{0}
	}
	if len(s.Placements) == 0 {
		s.Placements = []string{""}
	}
}

// Validate checks every axis value against its registry before any
// simulation runs, so a typo fails the whole sweep immediately.
func (s *Spec) Validate() error {
	s.Fill()
	for _, key := range s.Engines {
		if _, err := core.Entry(key); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	for _, w := range s.Workloads {
		if _, ok := trace.Sources[w]; !ok {
			return fmt.Errorf("campaign: unknown workload %q (known: %s)",
				w, strings.Join(WorkloadNames(), ", "))
		}
	}
	for _, r := range s.Refs {
		if r <= 0 {
			return fmt.Errorf("campaign: non-positive refs %d", r)
		}
	}
	for _, v := range s.CacheSizes {
		if v <= 0 {
			return fmt.Errorf("campaign: non-positive cache size %d", v)
		}
	}
	for _, v := range s.L2Sizes {
		if v < 0 {
			return fmt.Errorf("campaign: negative L2 size %d", v)
		}
	}
	for _, p := range s.Placements {
		if _, err := edu.ParsePlacement(p); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	for _, v := range s.LineSizes {
		if v <= 0 {
			return fmt.Errorf("campaign: non-positive line size %d", v)
		}
	}
	for _, v := range s.BusWidths {
		if v <= 0 {
			return fmt.Errorf("campaign: non-positive bus width %d", v)
		}
	}
	for _, a := range s.Auths {
		if _, err := core.AuthEntryFor(a); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	for _, r := range s.AttackRates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("campaign: attack rate %g is not a non-negative finite number", r)
		}
	}
	return nil
}

// ParseSpecJSON decodes the wire form of a Spec — the exact payload
// `POST /sweeps` accepts and `sweep -spec` reads. Unknown fields are
// rejected (a typoed axis name must not silently sweep defaults), as
// is trailing data after the object, and the decoded spec is validated
// (and so default-filled) before it is returned.
func ParseSpecJSON(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("campaign: parsing spec JSON: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("campaign: trailing data after spec JSON")
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Size returns the number of tasks the grid expands to.
func (s *Spec) Size() int {
	s.Fill()
	return len(s.Engines) * len(s.Auths) * len(s.AttackRates) * len(s.Placements) *
		len(s.Workloads) * len(s.Refs) *
		len(s.CacheSizes) * len(s.L2Sizes) * len(s.LineSizes) * len(s.BusWidths)
}

// WorkloadNames lists the sweepable workloads in stable order.
func WorkloadNames() []string {
	names := make([]string, 0, len(trace.Sources))
	for n := range trace.Sources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseList splits a comma-separated flag value into trimmed non-empty
// items; empty input returns nil (axis default applies).
func ParseList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseIntList is ParseList for integer axes; it accepts size suffixes
// K and M (binary) so cache grids read naturally: "4K,16K,64K".
func ParseIntList(s string) ([]int, error) {
	var out []int
	for _, item := range ParseList(s) {
		mult, digits := 1, item
		upper := strings.ToUpper(item)
		switch {
		case strings.HasSuffix(upper, "K"):
			mult, digits = 1<<10, item[:len(item)-1]
		case strings.HasSuffix(upper, "M"):
			mult, digits = 1<<20, item[:len(item)-1]
		}
		n, err := strconv.Atoi(strings.TrimSpace(digits))
		if err != nil {
			return nil, fmt.Errorf("campaign: bad integer %q in list", digits)
		}
		if n > math.MaxInt/mult || n < math.MinInt/mult {
			return nil, fmt.Errorf("campaign: integer %q in list overflows int", item)
		}
		out = append(out, n*mult)
	}
	return out, nil
}

// ParseFloatList is ParseList for float axes (attack rates).
func ParseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, item := range ParseList(s) {
		f, err := strconv.ParseFloat(item, 64)
		if err != nil {
			return nil, fmt.Errorf("campaign: bad number %q in list", item)
		}
		out = append(out, f)
	}
	return out, nil
}
