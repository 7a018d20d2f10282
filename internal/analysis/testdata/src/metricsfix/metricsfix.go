// Package metricsfix is the fixture for hotpathalloc's metrics rules,
// run under HotPathAlloc alone: publishers must
// hold pre-registered obs cells by value; the registry is setup-side.
package metricsfix

import "repro/internal/obs"

type publisher struct {
	refs  *obs.Counter
	reg   *obs.Registry
	cells map[string]*obs.Counter
}

//repro:hotpath
func (p *publisher) Good() {
	p.refs.Inc() // cell held by value: clean
}

// RegistryWalk is the canonical seeded regression: a registry lookup in
// a marked publisher.
//
//repro:hotpath
func (p *publisher) RegistryWalk() {
	p.reg.Counter("soc.refs").Inc() // want `obs\.Registry\.Counter on the hot path`
}

//repro:hotpath
func (p *publisher) MapLookup() {
	p.cells["soc.refs"].Inc() // want `metric cell fetched through a map on the hot path`
}

//repro:hotpath
func (p *publisher) Fresh() {
	r := obs.NewRegistry() // want `obs\.NewRegistry on the hot path`
	_ = r
}

//repro:hotpath
func Snap(h *obs.Histogram) uint64 {
	s := h.Snapshot() // want `Histogram\.Snapshot on the hot path`
	return s.Count
}

// Reader is unmarked: reader-side registry walks are fine off the hot
// path, so this function must produce no diagnostics.
func Reader(r *obs.Registry) obs.Snapshot {
	return r.Snapshot()
}
