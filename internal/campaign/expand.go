//repro:deterministic
package campaign

import (
	"fmt"
	"hash/fnv"
)

// TaskConfig is one grid point: the full configuration of a single
// overhead measurement. It is a value type — two equal configs are the
// same experiment and hash to the same key.
type TaskConfig struct {
	Engine string `json:"engine"`
	// Auth is the authenticator key ("none" for no verification).
	Auth string `json:"auth"`
	// AttackRate is the active-adversary strike rate in tampers per
	// 10,000 references (0 = no adversary).
	AttackRate float64 `json:"attack_rate"`
	// Placement is the EDU/verifier boundary (edu.ParsePlacement
	// vocabulary; "" = the outermost boundary of the hierarchy).
	Placement string `json:"placement"`
	Workload  string `json:"workload"`
	Refs      int    `json:"refs"`
	CacheSize int    `json:"cache_size"`
	// L2Size is the optional second-level cache capacity in bytes
	// (0 = single-level system).
	L2Size   int `json:"l2_size"`
	LineSize int `json:"line_size"`
	BusWidth int `json:"bus_width"`
}

// Key is the canonical string identity of the config; every cache key
// and seed derivation goes through it so identity has one definition.
// An unset Auth normalizes to "none" and an unset Placement to
// "default": the variants spell the same system.
func (c TaskConfig) Key() string {
	auth := c.Auth
	if auth == "" {
		auth = "none"
	}
	return fmt.Sprintf("engine=%s auth=%s attack=%g place=%s l2=%d %s",
		c.Engine, auth, c.AttackRate, c.PlacementName(), c.L2Size, c.PointKey())
}

// PlacementName is the placement with the default spelled out.
func (c TaskConfig) PlacementName() string {
	if c.Placement == "" {
		return "default"
	}
	return c.Placement
}

// EngineLabel is the composite protection identity ("xom+tree"), the
// unit the ranked summary groups by — an authenticated system is a
// different design point than its bare engine.
func (c TaskConfig) EngineLabel() string {
	if c.Auth == "" || c.Auth == "none" {
		return c.Engine
	}
	return c.Engine + "+" + c.Auth
}

// PointKey identifies the protection-independent grid point: the
// workload, trace length, and core system geometry — excluding the
// engine, the authenticator, the attack rate, the EDU placement AND
// the L2 (which joins via BaselineKey). All protection configurations
// at one point share a trace (seeded from this key), which is what
// makes the overhead columns comparable and -jobs N byte-identical.
// The L2 stays out so every hierarchy depth at a point measures the
// same reference stream.
func (c TaskConfig) PointKey() string {
	return fmt.Sprintf("workload=%s refs=%d cache=%d line=%d bus=%d",
		c.Workload, c.Refs, c.CacheSize, c.LineSize, c.BusWidth)
}

// BaselineKey identifies the plaintext baseline simulation a task
// measures against: the point plus the cache hierarchy, because an L2
// changes baseline cycles, while the protection axes (engine, auth,
// attack, placement) do not exist in a Null-engine system. Every
// protection configuration at one (point, L2) shares the baseline
// cached under this key. For single-level tasks it equals PointKey, so
// pre-hierarchy sweeps reuse exactly the baselines they always did.
func (c TaskConfig) BaselineKey() string {
	if c.L2Size == 0 {
		return c.PointKey()
	}
	return fmt.Sprintf("%s l2=%d", c.PointKey(), c.L2Size)
}

// Seed derives the task's trace seed from the engine-independent point
// hash. Parallel and sequential sweeps hand each task this same seed,
// so scheduling order cannot perturb a single generated reference.
func (c TaskConfig) Seed() int64 {
	return int64(hashString(c.PointKey()) & (1<<63 - 1))
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Task is one unit of campaign work: a grid point plus its position in
// the expansion order (which fixes its slot in the result table).
type Task struct {
	Index int
	Cfg   TaskConfig
}

// Expand enumerates the grid in a fixed nesting order (engine outermost,
// bus width innermost). The order is part of the determinism contract:
// results are reported in expansion order regardless of which worker
// finishes first.
func (s *Spec) Expand() []Task {
	s.Fill()
	tasks := make([]Task, 0, s.Size())
	for _, eng := range s.Engines {
		for _, auth := range s.Auths {
			for _, atk := range s.AttackRates {
				for _, place := range s.Placements {
					for _, wl := range s.Workloads {
						for _, refs := range s.Refs {
							for _, cs := range s.CacheSizes {
								for _, l2 := range s.L2Sizes {
									for _, ls := range s.LineSizes {
										for _, bw := range s.BusWidths {
											tasks = append(tasks, Task{
												Index: len(tasks),
												Cfg: TaskConfig{
													Engine: eng, Auth: auth, AttackRate: atk,
													Placement: place, Workload: wl, Refs: refs,
													CacheSize: cs, L2Size: l2, LineSize: ls, BusWidth: bw,
												},
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return tasks
}
