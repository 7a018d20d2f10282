// Process-lifetime shared memoization: the campaign Store.
//
// A Runner's baseline and result memos historically lived and died with
// the Runner. The sweep service (internal/serve) runs many campaigns
// over one process lifetime, and the determinism contract — every
// result is a pure function of its TaskConfig.Key(), every baseline of
// its BaselineKey() — makes completed values safely shareable across
// requests: hand the same Store to every Runner and concurrent sweeps
// share baselines and grid points instead of recomputing them. The
// singleflight memo underneath means even two sweeps computing the
// same key at the same instant run it once: the second blocks and is
// served the first's value (counted as a hit).
//
// Snapshots extend the sharing across process restarts: WriteSnapshot
// persists every completed entry as JSON and ReadSnapshot seeds a
// fresh Store from it, which is the checkpoint/resume story for long
// campaigns — a restarted sweepd replays only the points that had not
// finished.
//
//repro:deterministic
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"

	"repro/internal/sim/soc"
)

// Store is the process-lifetime shared memo: plaintext baselines keyed
// by TaskConfig.BaselineKey(), completed results by TaskConfig.Key().
// A zero Store is not usable; construct with NewStore. All methods are
// safe for concurrent use by any number of Runners.
type Store struct {
	baselines *memo[soc.Report]
	results   *memo[Result]
}

// NewStore returns an empty shared store.
func NewStore() *Store {
	return &Store{
		baselines: newMemo[soc.Report](),
		results:   newMemo[Result](),
	}
}

// BaselineRuns reports how many plaintext baseline simulations actually
// executed over the store's lifetime; BaselineHits how many lookups
// were served from cache instead.
func (s *Store) BaselineRuns() int64 { return s.baselines.Misses() }

// BaselineHits is the cache-served baseline lookup count.
func (s *Store) BaselineHits() int64 { return s.baselines.Hits() }

// ResultRuns reports how many grid points were actually simulated;
// ResultHits how many task lookups were served from cache — the
// cross-request sharing win when the store backs a service.
func (s *Store) ResultRuns() int64 { return s.results.Misses() }

// ResultHits is the cache-served result lookup count.
func (s *Store) ResultHits() int64 { return s.results.Hits() }

// Len reports the resident entry counts (baselines, results),
// including in-flight computations.
func (s *Store) Len() (baselines, results int) {
	return s.baselines.size(), s.results.size()
}

// SnapshotVersion is the store snapshot schema version. Bump it when
// Result or soc.Report change shape in a way that makes old snapshots
// wrong rather than merely incomplete; ReadSnapshot rejects mismatches
// instead of silently seeding stale physics.
const SnapshotVersion = 1

// storeSnapshot is the on-disk form: a plain JSON object so checkpoint
// files are inspectable with standard tools.
type storeSnapshot struct {
	Version   int                   `json:"version"`
	Baselines map[string]soc.Report `json:"baselines"`
	Results   map[string]Result     `json:"results"`
}

// WriteSnapshot persists every completed entry to w. Failed cells
// (Result.Err != "") are skipped — they are configuration errors,
// cheap to rediscover and better re-validated by the build that loads
// the snapshot — and flight-recorder streams are never persisted
// (Result.Trace is not serialized).
func (s *Store) WriteSnapshot(w io.Writer) error {
	results := s.results.snapshot()
	maps.DeleteFunc(results, func(_ string, r Result) bool { return r.Err != "" })
	return json.NewEncoder(w).Encode(storeSnapshot{
		Version:   SnapshotVersion,
		Baselines: s.baselines.snapshot(),
		Results:   results,
	})
}

// ReadSnapshot seeds the store from a snapshot written by
// WriteSnapshot. A result loads only if its file key equals the key its
// own embedded TaskConfig derives, so an edited snapshot can neither
// alias a result onto the wrong grid point nor, with two entries that
// derive one key, load a different one on each boot (WriteSnapshot
// always writes derived keys). Baseline keys are taken as written (a
// baseline report does not embed its config). Entries already present
// in the store win.
func (s *Store) ReadSnapshot(r io.Reader) error {
	var snap storeSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("campaign: reading store snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("campaign: store snapshot version %d (this build reads %d)",
			snap.Version, SnapshotVersion)
	}
	maps.DeleteFunc(snap.Results, func(k string, v Result) bool { return v.Err != "" || v.Key() != k })
	s.results.seed(snap.Results)
	s.baselines.seed(snap.Baselines)
	return nil
}

// SaveFile atomically writes the snapshot to path: the bytes land in a
// temporary sibling first and replace the old checkpoint only on a
// clean rename, so a crash mid-save never truncates a good checkpoint.
func (s *Store) SaveFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".store-*.json")
	if err != nil {
		return err
	}
	err = s.WriteSnapshot(tmp)
	if err == nil {
		// The bytes must reach stable storage before the rename
		// publishes them: otherwise a crash after the rename can leave
		// an empty file in place of the good checkpoint.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// LoadFile seeds the store from a checkpoint file. A missing file is
// returned as-is (callers treat it as a cold start via os.IsNotExist /
// errors.Is(err, fs.ErrNotExist)).
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.ReadSnapshot(f)
}
