package authtree

import (
	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// Metrics publishes the tree authenticator's activity into
// pre-registered obs metrics, live — node-cache hit rate and tag-unit
// pressure are the two signals the cached-tree argument rests on. The
// zero value (all nil) disables publishing; all methods of obs metrics
// are nil-receiver no-ops, so the verified miss path stays
// allocation-free either way.
type Metrics struct {
	// NodeHits / NodeFetches split verification and update walks by
	// node-cache outcome: the locality the node cache exists to exploit.
	NodeHits, NodeFetches *obs.Counter
	// TagComputations counts GMAC line-tag evaluations — the tag
	// unit's throughput demand.
	TagComputations *obs.Counter
	// Verified / Violations count line verifications by verdict.
	Verified, Violations *obs.Counter
}

// NewMetrics registers the authenticator inventory on r
// ("authtree.node_hits", "authtree.node_fetches",
// "authtree.tag_computations", "authtree.verified",
// "authtree.violations").
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		NodeHits:        r.Counter("authtree.node_hits"),
		NodeFetches:     r.Counter("authtree.node_fetches"),
		TagComputations: r.Counter("authtree.tag_computations"),
		Verified:        r.Counter("authtree.verified"),
		Violations:      r.Counter("authtree.violations"),
	}
}

// SetMetrics installs live counters on the tree (zero value to
// disable). Trees sharing a registry share cells — a campaign's
// aggregate node-cache hit rate.
func (t *Tree) SetMetrics(m Metrics) { t.m = m }

// SetRecorder installs the flight recorder (nil to disable): walks
// emit per-node fetch/hit/dirty-propagate events into it, stamped with
// whatever cycle/ref the SoC last set — the tree has no clock of its
// own, and the recorder's stamp discipline means it doesn't need one.
func (t *Tree) SetRecorder(r *rec.Recorder) { t.rc = r }
