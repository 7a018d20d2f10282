// Package authtree is the memory-authentication subsystem the survey's
// future-work section points toward and AEGIS develops: integrity trees
// over protected DRAM with only the root held on-chip. The flat
// authenticator (Flat) charges O(protected memory) on-chip SRAM for
// its freshness counters; a tree pays O(1) on-chip (the root plus a
// bounded node cache) and moves the rest of the structure into
// untrusted external memory, authenticated level by level.
//
// Two variants span the design space:
//
//   - HashTree: a Merkle tree whose leaves are the per-line tags and
//     whose interior nodes hash their children at full 128-bit width.
//   - CounterTree: the AEGIS/TEC-tree direction — interior nodes hold
//     per-child freshness counters (8 bytes each) plus one node tag, so
//     nodes are smaller: the same on-chip SRAM caches more of the tree
//     and each uncached level moves fewer bus bytes.
//
// Node tags are 64-bit GMAC (crypto/ghash): AES-128-GCM over the node
// under the nonce address ‖ version, a GHASH universal hash masked by
// one AES block. A carryless multiplier is cheap enough to put on the
// miss path, and the mask depends only on (address, version), so it is
// computed during the fetch: that is what makes per-node authentication
// affordable at all. Nonces are unique per write under CounterTree and
// flat-fresh. Under HashTree and flat-mac the version is always 0, so a
// rewrite of a line reuses its nonce and the tag is as strong as the
// bare GHASH; HashTree's freshness comes from the root-anchored chain.
//
// The on-chip node cache is the performance lever: a verification walk
// climbs only until it meets a node already verified this epoch (cached
// copies are inside the trust boundary), so the cost of a miss depends
// on tree locality rather than always paying log(N) hashes. Updates dirty
// the cached path lazily and pay the propagation on eviction — the
// cached-tree discipline of the AEGIS literature.
//
// Simulation contract: external stores (the per-line tag array) are
// materialized sparsely and are attacker-tamperable via TagAt/
// TamperTag; interior nodes are modeled positionally — the walk charges
// fetch/hash cycles against real node-cache state, while the verdict is
// computed against the root-anchored ground truth the walk would
// reconstruct. For the tamper surface the attack harness implements
// (DRAM data + external tag store), the two are equivalent; see
// DESIGN.md §7. All steady-state operations are allocation-free.
package authtree

import (
	"fmt"

	"repro/internal/crypto/ghash"
	"repro/internal/edu"
	"repro/internal/obs/rec"
)

// Variant selects the tree flavor.
type Variant int

const (
	// HashTree is a Merkle tree: interior nodes are full-width hashes
	// of their children.
	HashTree Variant = iota
	// CounterTree is the AEGIS direction: interior nodes carry
	// per-child counters plus a node tag, so nodes are smaller.
	CounterTree
)

// String names the variant as reports print it.
func (v Variant) String() string {
	if v == CounterTree {
		return "counter-tree"
	}
	return "hash-tree"
}

// Region is one protected window of the physical address space.
// Regions map contiguously into the tree's leaf index space in slice
// order; accesses outside every region bypass authentication
// (unprotected traffic should be a deliberate choice).
type Region struct {
	Base, Bytes uint64
}

// The fixed tree and tag-unit geometry.
const (
	// arity is children per interior node.
	log2Arity = 3
	arity     = 1 << log2Arity
	// tagCycles is the line-tag pipeline tail visible beyond the
	// transfer, for the trees and the flat authenticators alike.
	tagCycles = 8
	// nodeHashCycles is the cost of hashing one interior node (nodes
	// are smaller than lines).
	nodeHashCycles = 4
)

// Config assembles a tree authenticator.
type Config struct {
	// Key is the 16-byte AES-128 key of the GMAC node tags.
	Key []byte
	// LineBytes is the protected granule — the SoC's cache line size.
	LineBytes int
	// Regions are the protected DRAM windows (required, non-empty).
	Regions []Region
	// NodeCacheBytes is the on-chip node cache SRAM; default 4 KiB.
	NodeCacheBytes int
	// Variant selects HashTree or CounterTree.
	Variant Variant
}

// Tree is one tree authenticator instance. It implements edu.Verifier.
type Tree struct {
	cfg       Config
	key       *ghash.Key
	levels    int    // interior levels; level `levels` is the on-chip root
	leaves    uint64 // leaf slots across all regions
	nodeBytes int
	fetchCost uint64 // external node fetch/writeback, CPU cycles
	cache     nodeCache
	ext       map[uint64]ghash.Tag // external per-line tag store (tamperable)
	trusted   map[uint64]ghash.Tag // root-anchored ground truth
	ver       map[uint64]uint64    // per-line counters (CounterTree)
	// m is the live metrics bundle (zero value = publish nowhere).
	m Metrics
	// rc is the flight recorder (nil = no-op): walks emit per-node
	// fetch/hit/dirty-propagate events under the SoC's current stamp.
	rc *rec.Recorder
}

// New builds a tree authenticator.
func New(cfg Config) (*Tree, error) {
	if len(cfg.Key) != ghash.KeySize {
		return nil, fmt.Errorf("authtree: key must be %d bytes, got %d", ghash.KeySize, len(cfg.Key))
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("authtree: line size %d not a positive power of two", cfg.LineBytes)
	}
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("authtree: no protected regions")
	}
	var total uint64
	for _, r := range cfg.Regions {
		if r.Bytes == 0 || r.Bytes%uint64(cfg.LineBytes) != 0 || r.Base%uint64(cfg.LineBytes) != 0 {
			return nil, fmt.Errorf("authtree: region %+v not line-aligned", r)
		}
		total += r.Bytes
	}
	if cfg.NodeCacheBytes == 0 {
		cfg.NodeCacheBytes = 4 << 10
	}
	if cfg.NodeCacheBytes < 0 {
		return nil, fmt.Errorf("authtree: negative node cache size")
	}

	t := &Tree{
		cfg:     cfg,
		key:     ghash.NewKey(cfg.Key),
		leaves:  total / uint64(cfg.LineBytes),
		ext:     make(map[uint64]ghash.Tag),
		trusted: make(map[uint64]ghash.Tag),
	}
	// Interior levels until one node covers every leaf; that single
	// top node is the on-chip root.
	for n := t.leaves; n > arity; n = (n + arity - 1) / arity {
		t.levels++
	}
	t.levels++ // the root level itself

	switch cfg.Variant {
	case CounterTree:
		// Per-child 8-byte counters plus one 8-byte node tag.
		t.nodeBytes = 8*arity + 8
		t.ver = make(map[uint64]uint64)
	default:
		// Full-width (128-bit) interior hashes: collision resistance
		// lives here.
		t.nodeBytes = 16 * arity
	}
	// External node traffic: a first-order row access plus 32-bit bus
	// beats for the node body (see DESIGN.md §7 for the rationale).
	t.fetchCost = uint64(16 + t.nodeBytes/4)
	t.cache.init(cfg.NodeCacheBytes / t.nodeBytes)
	return t, nil
}

// Name implements edu.Verifier.
func (t *Tree) Name() string { return t.cfg.Variant.String() }

// Gates implements edu.Verifier: the GHASH datapath, the node-cache
// SRAM, and the root register — on-chip cost is independent of
// protected-memory size, which is the whole argument for trees.
func (t *Tree) Gates() int {
	return edu.GHASHUnitGates +
		(t.cfg.NodeCacheBytes+t.nodeBytes)*edu.SRAMGatesPerByte
}

// leafIndex maps a protected address to its leaf slot; ok=false means
// the address is outside every protected region.
func (t *Tree) leafIndex(addr uint64) (uint64, bool) {
	var offset uint64
	for _, r := range t.cfg.Regions {
		if addr >= r.Base && addr < r.Base+r.Bytes {
			return (offset + (addr - r.Base)) / uint64(t.cfg.LineBytes), true
		}
		offset += r.Bytes
	}
	return 0, false
}

func nodeKey(level int, id uint64) uint64 {
	return uint64(level)<<56 | id
}

// version returns the freshness input to a line's tag: the live counter
// under CounterTree, 0 under HashTree (whose freshness comes from the
// root-anchored tag chain instead).
func (t *Tree) version(addr uint64) uint64 {
	if t.ver == nil {
		return 0
	}
	return t.ver[addr]
}

// walkVerify climbs from the leaf's parent toward the root, stopping at
// the first node already inside the trust boundary (node-cache hit or
// the on-chip root). Each uncached level pays an external node fetch
// plus a node hash; evicting a dirty cached node pays its writeback.
func (t *Tree) walkVerify(leaf uint64) uint64 {
	var stall uint64
	for lvl := 1; lvl < t.levels; lvl++ {
		key := nodeKey(lvl, leaf>>(uint(lvl)*log2Arity))
		if t.cache.probe(key, false) {
			t.m.NodeHits.Inc()
			t.rc.Emit(rec.KindNodeHit, key, uint8(lvl), 0, 0)
			return stall + 1
		}
		t.m.NodeFetches.Inc()
		t.rc.Emit(rec.KindNodeFetch, key, uint8(lvl), 0, t.fetchCost+nodeHashCycles)
		stall += t.fetchCost + nodeHashCycles
		if t.cache.insert(key, false) {
			stall += t.fetchCost // dirty victim written back
			t.rc.Emit(rec.KindDirtyPropagate, key, uint8(lvl), 0, t.fetchCost)
		}
	}
	return stall + 1 // met the on-chip root
}

// walkUpdate recomputes the path above a modified leaf. A cached
// ancestor absorbs the update in place (dirtied, propagated on
// eviction); an uncached one must be fetched and verified before it can
// be rewritten.
func (t *Tree) walkUpdate(leaf uint64) uint64 {
	var stall uint64
	for lvl := 1; lvl < t.levels; lvl++ {
		key := nodeKey(lvl, leaf>>(uint(lvl)*log2Arity))
		if t.cache.probe(key, true) {
			t.m.NodeHits.Inc()
			t.rc.Emit(rec.KindNodeHit, key, uint8(lvl), rec.FlagUpdate, 0)
			return stall + nodeHashCycles
		}
		t.m.NodeFetches.Inc()
		t.rc.Emit(rec.KindNodeFetch, key, uint8(lvl), rec.FlagUpdate, t.fetchCost+2*nodeHashCycles)
		stall += t.fetchCost + 2*nodeHashCycles // verify, then recompute
		if t.cache.insert(key, true) {
			stall += t.fetchCost
			t.rc.Emit(rec.KindDirtyPropagate, key, uint8(lvl), rec.FlagUpdate, t.fetchCost)
		}
	}
	return stall + nodeHashCycles // root register update
}

// VerifyRead implements edu.Verifier. Two comparisons close the three
// attacks: the recomputed tag against the external store catches
// spoofing and splicing (content and address binding), and the external
// store against the root-anchored value catches replay of a stale
// (line, tag) pair. A line never seen before enrolls only as unwritten
// DRAM (all zeros), as boot firmware initializing protected memory
// would leave it; any other content was written around the SoC.
func (t *Tree) VerifyRead(addr uint64, ct []byte) (uint64, bool) {
	leaf, protected := t.leafIndex(addr)
	if !protected {
		return 0, true
	}
	stall := uint64(tagCycles)
	want := t.key.TagLine(addr, t.version(addr), ct)
	t.m.TagComputations.Inc()
	stored, enrolled := t.ext[addr]
	if !enrolled && unwritten(ct) {
		//repro:allow enrollment inserts once per line; steady-state reads never reach here
		t.ext[addr] = want
		//repro:allow enrollment inserts once per line; steady-state reads never reach here
		t.trusted[addr] = want
		t.m.Verified.Inc()
		return stall + t.walkUpdate(leaf), true
	}
	stall += t.walkVerify(leaf)
	if !enrolled || want != stored || stored != t.trusted[addr] {
		t.m.Violations.Inc()
		return stall, false
	}
	t.m.Verified.Inc()
	return stall, true
}

// UpdateWrite implements edu.Verifier: retag the line (bumping its
// counter under CounterTree) and propagate up the cached path.
func (t *Tree) UpdateWrite(addr uint64, ct []byte) uint64 {
	leaf, protected := t.leafIndex(addr)
	if !protected {
		return 0
	}
	if t.ver != nil {
		t.ver[addr]++ //repro:allow sparse counter table; steady-state bumps hit existing keys
	}
	tag := t.key.TagLine(addr, t.version(addr), ct)
	t.m.TagComputations.Inc()
	//repro:allow sparse external tag store; steady-state writes hit existing keys
	t.ext[addr] = tag
	//repro:allow sparse external tag store; steady-state writes hit existing keys
	t.trusted[addr] = tag
	return tagCycles + t.walkUpdate(leaf)
}

// TagAt returns the externally stored tag for a line — attacker-
// readable, like the tag memory it models.
func (t *Tree) TagAt(addr uint64) ([ghash.TagBytes]byte, bool) {
	tag, ok := t.ext[addr]
	return tag, ok
}

// TamperTag overwrites the external tag store — the attack harness's
// write access to external memory.
func (t *Tree) TamperTag(addr uint64, tag [ghash.TagBytes]byte) { t.ext[addr] = tag } //repro:allow attack-harness tamper write; per-strike, timing runs never call it

// unwritten reports whether ct is what DRAM holds before any write:
// all zeros.
func unwritten(ct []byte) bool {
	for _, b := range ct {
		if b != 0 {
			return false
		}
	}
	return true
}

// nodeCache is the on-chip cache of verified tree nodes: 4-way
// set-associative, LRU, preallocated — probes and inserts never
// allocate.
type nodeCache struct {
	entries []nodeEntry
	sets    int
	ways    int
	tick    uint64
}

type nodeEntry struct {
	key   uint64
	valid bool
	dirty bool
	used  uint64
}

func (c *nodeCache) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	c.ways = 4
	if capacity < c.ways {
		c.ways = capacity
	}
	// Use the whole configured budget: the set index is a plain
	// modulo, so the set count need not be a power of two. (Rounding
	// down would silently discard SRAM the Gates figure charges —
	// and with it the counter-tree's smaller-node advantage.)
	c.sets = capacity / c.ways
	if c.sets < 1 {
		c.sets = 1
	}
	c.entries = make([]nodeEntry, c.sets*c.ways)
}

func (c *nodeCache) set(key uint64) []nodeEntry {
	s := int((key ^ key>>17) % uint64(c.sets))
	return c.entries[s*c.ways : (s+1)*c.ways]
}

// probe reports residency, refreshing LRU state and optionally marking
// the node dirty (an in-place cached update).
func (c *nodeCache) probe(key uint64, markDirty bool) bool {
	c.tick++
	ways := c.set(key)
	for i := range ways {
		if ways[i].valid && ways[i].key == key {
			ways[i].used = c.tick
			if markDirty {
				ways[i].dirty = true
			}
			return true
		}
	}
	return false
}

// insert caches a just-verified node, returning whether a dirty victim
// was evicted (its propagation cost is the caller's to charge).
func (c *nodeCache) insert(key uint64, dirty bool) (evictedDirty bool) {
	c.tick++
	ways := c.set(key)
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	evictedDirty = ways[victim].valid && ways[victim].dirty
	ways[victim] = nodeEntry{key: key, valid: true, dirty: dirty, used: c.tick}
	return evictedDirty
}
