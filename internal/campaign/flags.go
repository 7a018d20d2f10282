//repro:deterministic
package campaign

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/edu"
)

// SpecFlags binds the grid axes to a FlagSet, so the sweep CLI builds
// its Spec from one definition of the flag vocabulary, with one help
// text and one parse path. Register with RegisterSpecFlags, then call
// Spec after fs.Parse.
type SpecFlags struct {
	engines, workloads, refs, cache, l2, placement *string
	line, bus, auths, attack                       *string
}

// RegisterSpecFlags installs the grid-axis flags on fs and returns the
// handle that builds the Spec from their parsed values.
func RegisterSpecFlags(fs *flag.FlagSet) *SpecFlags {
	f := &SpecFlags{}
	f.engines = fs.String("engines", "", "engine keys to sweep (default: all surveyed engines)")
	f.workloads = fs.String("workloads", "", "workload names to sweep (default: all generators)")
	f.refs = fs.String("refs", "", fmt.Sprintf("trace lengths to sweep (default: %d)", core.DefaultRefs))
	f.cache = fs.String("cache", "", "L1 cache sizes in bytes, K/M suffixes ok (default: 16K)")
	f.l2 = fs.String("l2", "", "L2 cache sizes in bytes, 0 = no L2, K/M suffixes ok (default: 0)")
	f.placement = fs.String("placement", "", fmt.Sprintf("EDU placements to sweep: %s (default: default)", strings.Join(edu.PlacementNames(), ",")))
	f.line = fs.String("line", "", "cache line sizes in bytes (default: 32)")
	f.bus = fs.String("bus", "", "bus widths in bytes (default: 4)")
	f.auths = fs.String("authtree", "", fmt.Sprintf("authenticator keys to sweep: %s (default: none)", strings.Join(core.AuthKeys(), ",")))
	f.attack = fs.String("attack", "", "active-adversary strike rates in tampers per 10k refs (default: 0)")
	return f
}

// Empty reports whether no grid-axis flag was set — the all-defaults
// sweep. sweep -spec refuses axis flags beside it.
func (f *SpecFlags) Empty() bool {
	return *f.engines == "" && *f.workloads == "" && *f.refs == "" &&
		*f.cache == "" && *f.l2 == "" && *f.placement == "" &&
		*f.line == "" && *f.bus == "" && *f.auths == "" && *f.attack == ""
}

// Spec builds the grid spec from the parsed flag values. List parsing
// errors surface here; registry validation happens in NewRunner (or
// Spec.Validate) as always.
func (f *SpecFlags) Spec() (Spec, error) {
	spec := Spec{
		Engines:    ParseList(*f.engines),
		Workloads:  ParseList(*f.workloads),
		Auths:      ParseList(*f.auths),
		Placements: ParseList(*f.placement),
	}
	var err error
	if spec.AttackRates, err = ParseFloatList(*f.attack); err != nil {
		return Spec{}, err
	}
	if spec.Refs, err = ParseIntList(*f.refs); err != nil {
		return Spec{}, err
	}
	if spec.CacheSizes, err = ParseIntList(*f.cache); err != nil {
		return Spec{}, err
	}
	if spec.L2Sizes, err = ParseIntList(*f.l2); err != nil {
		return Spec{}, err
	}
	if spec.LineSizes, err = ParseIntList(*f.line); err != nil {
		return Spec{}, err
	}
	if spec.BusWidths, err = ParseIntList(*f.bus); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
