//repro:deterministic
package campaign

import (
	"sync"
	"sync/atomic"
)

// memo is a concurrency-safe compute-once cache keyed by canonical
// config strings. Concurrent requests for the same key block on one
// computation (singleflight semantics) rather than duplicating work —
// this is what lets eight engines at one grid point share a single
// plaintext baseline simulation.
//
// Errors are NOT memoized: a failed computation is evicted before its
// waiters are released, so the next lookup retries instead of replaying
// a possibly transient error for the life of the process. Callers that
// were already waiting on the failed computation receive its error (it
// was their attempt too); callers arriving later start fresh.
type memo[T any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[T]
	hits    atomic.Int64
	misses  atomic.Int64
}

type memoEntry[T any] struct {
	done chan struct{} // closed when val/err are final
	val  T
	err  error
}

func newMemo[T any]() *memo[T] {
	return &memo[T]{entries: make(map[string]*memoEntry[T])}
}

// get returns the cached value for key, computing it if absent. Exactly
// one caller runs the computation per attempt; a hit is only counted
// once a completed, successful entry is served — an in-flight wait that
// ends in an error is neither a hit nor a miss for the waiter.
func (m *memo[T]) get(key string, compute func() (T, error)) (T, error) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		e = &memoEntry[T]{done: make(chan struct{})}
		m.entries[key] = e
		m.mu.Unlock()

		m.misses.Add(1)
		e.val, e.err = compute()
		if e.err != nil {
			// Evict before releasing waiters: once done is closed no
			// later lookup may observe the failed entry.
			m.mu.Lock()
			if m.entries[key] == e {
				delete(m.entries, key)
			}
			m.mu.Unlock()
		}
		close(e.done)
		return e.val, e.err
	}
	m.mu.Unlock()

	<-e.done
	if e.err == nil {
		m.hits.Add(1)
	}
	return e.val, e.err
}

// Hits reports how many lookups were served a completed successful
// value from cache.
func (m *memo[T]) Hits() int64 { return m.hits.Load() }

// Misses reports how many lookups ran the computation.
func (m *memo[T]) Misses() int64 { return m.misses.Load() }

// size reports the number of entries, including in-flight computations.
func (m *memo[T]) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// snapshot copies every completed, successful entry — the persistable
// state of the memo. In-flight computations are skipped (they hold no
// final value yet); errored entries were already evicted before their
// waiters released, so none can appear here.
func (m *memo[T]) snapshot() map[string]T {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]T, len(m.entries))
	for k, e := range m.entries { //repro:allow iteration builds a map; JSON encoding sorts keys, so snapshot bytes are order-independent
		select {
		case <-e.done:
			if e.err == nil {
				out[k] = e.val
			}
		default:
		}
	}
	return out
}

// seed installs already-computed values, as restored from a snapshot.
// Existing entries win: a value is never replaced under the waiters of
// a live computation, and seeded entries count as neither hits nor
// misses until a lookup actually lands on them.
func (m *memo[T]) seed(vals map[string]T) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range vals { //repro:allow insertion into a keyed map; entry state is identical for any iteration order
		if _, ok := m.entries[k]; ok {
			continue
		}
		e := &memoEntry[T]{done: make(chan struct{}), val: v}
		close(e.done)
		m.entries[k] = e
	}
}
