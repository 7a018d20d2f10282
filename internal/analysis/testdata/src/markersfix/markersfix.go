// Package markersfix exercises the marker grammar itself: unknown
// directives, reason-less allows, misplaced markers, and stale allows.
// Expectations are asserted programmatically in markers_test.go (the
// // want harness can't annotate lines whose directive would swallow
// the want text).
package markersfix

//repro:frobnicate
func unknownDirective() {}

func misplaced() {
	//repro:hotpath
	_ = 0
}

//repro:allow
func reasonless() {}

func stale() int {
	x := 1 //repro:allow nothing here needs suppressing
	return x
}

// retiredShardpure carries the marker folded into //repro:deterministic.
//
//repro:shardpure
func retiredShardpure() {}

var _, _, _, _, _ = unknownDirective, misplaced, reasonless, stale, retiredShardpure
