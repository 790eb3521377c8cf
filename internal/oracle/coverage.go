package oracle

import (
	"slices"
	"sort"
)

// CoverageDigest is the per-trial interleaving-coverage summary mined from
// the happens-before tracker — the greybox feedback signal MUZZ argues
// matters for concurrency bugs: not *which* code ran (every trial runs the
// same app) but *how its callbacks interleaved*. Three signals, each cheap
// to maintain inline with work the tracker already does:
//
//   - RacingPairs: the set of callback-kind pairs observed racing — two
//     units with conflicting accesses to one cell, unordered by
//     happens-before (the same condition that produces a Report, minus the
//     per-cell dedup and report cap). A never-seen racing pair means the
//     schedule drove two kinds of callbacks into a new kind of conflict.
//   - HBDigest: an FNV-1a digest of the trial's type-level HB-edge set —
//     the distinct (predecessor kind → successor kind) causality edges the
//     tracker recorded. Two trials whose callbacks were causally wired the
//     same way share a digest; a fresh digest means a causality shape the
//     campaign has never executed.
//   - Tuples: the callback-kind k-tuples (k=2,3) executed adjacently at the
//     top level of the schedule — the schedule-sensitive n-gram coverage of
//     the interleaving itself.
//
// Pairs and tuples are held as packed kind-ID keys (see kindTable); no
// string is built until someone asks for one. RacingPairs and Tuples
// render them — "kindA|kindB" with the kinds in string order, "a>b",
// "a>b>c" — each set sorted, and CoverageMap renders only the items a
// campaign has never seen. With a fixed seed under a virtual clock the
// digest is a pure function of the trial (bit-identical across runs).
type CoverageDigest struct {
	// HBDigest is the 16-hex-digit XOR-folded FNV-1a digest of the
	// distinct type-level happens-before edges; empty when the digest was
	// built from records that carried none.
	HBDigest string

	pairs  []uint64 // racing pairs, kinds in string order; sorted
	tuples []uint64 // adjacency 2- and 3-tuples; sorted
}

// Items counts the digest's coverage items (pairs + tuples + the HB digest
// itself); the campaign uses it as the denominator of the new-coverage
// reward fraction.
func (d CoverageDigest) Items() int {
	return len(d.pairs) + len(d.tuples) + 1
}

// RacingPairs renders the racing pairs as sorted "kindA|kindB" strings
// (nil when there are none).
func (d CoverageDigest) RacingPairs() []string { return renderSorted(d.pairs, '|') }

// Tuples renders the adjacency n-grams as sorted "a>b" / "a>b>c" strings
// (nil when there are none).
func (d CoverageDigest) Tuples() []string { return renderSorted(d.tuples, '>') }

func renderSorted(keys []uint64, sep byte) []string {
	if len(keys) == 0 {
		return nil
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = kinds.render(k, sep)
	}
	sort.Strings(out)
	return out
}

// CoverageOf builds a digest from rendered items, the form coverage
// journal records and tests spell them in; trackers build theirs with
// Coverage. Malformed items are dropped; an empty hbDigest means none.
func CoverageOf(pairs []string, hbDigest string, tuples []string) CoverageDigest {
	d := CoverageDigest{HBDigest: hbDigest}
	for _, p := range pairs {
		if k, ok := kinds.parse(p, '|'); ok {
			d.pairs = append(d.pairs, k)
		}
	}
	for _, tu := range tuples {
		if k, ok := kinds.parse(tu, '>'); ok {
			d.tuples = append(d.tuples, k)
		}
	}
	slices.Sort(d.pairs)
	slices.Sort(d.tuples)
	return d
}

// coverage is the tracker-side accumulator behind CoverageDigest. Every
// set maps a packed key to the trial stamp it was last seen in, so Reset is
// a stamp increment rather than a clear, and the edge map doubles as the
// memo of each edge's FNV-1a hash. The stamps sit behind pointers so a key
// seen in an earlier trial is re-stamped with one map lookup.
type coverage struct {
	ids map[string]uint32 // lock-free cache of kinds.id

	trial     uint32 // entries stamped with it were seen this trial
	edges     map[uint64]*edgeSeen
	pairSeen  map[uint64]*uint32
	tupleSeen map[uint64]*uint32
	// pairs and tuples list this trial's distinct keys in discovery order.
	pairs, tuples []uint64
	hbDigest      uint64
	// prev1/prev2 are the kind IDs of the last and second-to-last
	// top-level units (0 before there are any), for adjacency n-grams.
	prev1, prev2 uint32
}

// edgeSeen is one type-level HB edge's FNV-1a hash and the last trial
// stamp it was folded into the digest in.
type edgeSeen struct {
	hash  uint64
	trial uint32
}

func newCoverage() *coverage {
	return &coverage{
		ids:       make(map[string]uint32),
		trial:     1,
		edges:     make(map[uint64]*edgeSeen),
		pairSeen:  make(map[uint64]*uint32),
		tupleSeen: make(map[uint64]*uint32),
	}
}

// reset starts a new trial, keeping map storage and the edge-hash memo.
func (c *coverage) reset() {
	c.trial++
	if c.trial == 0 { // wrapped: stale stamps could alias the new trial
		clear(c.edges)
		clear(c.pairSeen)
		clear(c.tupleSeen)
		c.trial = 1
	}
	c.pairs, c.tuples = c.pairs[:0], c.tuples[:0]
	c.hbDigest = 0
	c.prev1, c.prev2 = 0, 0
}

// id returns kind's interned ID, from the tracker's cache when it can.
func (c *coverage) id(kind string) uint32 {
	if id, ok := c.ids[kind]; ok {
		return id
	}
	id := kinds.id(kind)
	c.ids[kind] = id
	return id
}

// mark stamps key as seen this trial in m and reports whether it was new.
func (c *coverage) mark(m map[uint64]*uint32, key uint64) bool {
	p := m[key]
	if p == nil {
		p = new(uint32)
		m[key] = p
	}
	if *p == c.trial {
		return false
	}
	*p = c.trial
	return true
}

// FNV-1a parameters (hash/fnv's 64-bit variant, inlined so the per-edge
// hash allocates nothing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// edgeHash fingerprints one type-level HB edge. A NUL separates the kinds
// (kinds are short printable identifiers, never containing NUL), mirroring
// sched.Digest's element framing. The fold is exactly hash/fnv.New64a over
// from || 0x00 || to.
func edgeHash(from, to string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(from); i++ {
		h ^= uint64(from[i])
		h *= fnvPrime64
	}
	// The NUL separator: XOR with 0 is the identity, so only the multiply.
	h *= fnvPrime64
	for i := 0; i < len(to); i++ {
		h ^= uint64(to[i])
		h *= fnvPrime64
	}
	return h
}

// noteHBEdge folds the type-level causality edge from → to into the
// HB-edge set digest. XOR over distinct edges makes the digest
// order-insensitive: it identifies the edge *set*, not the discovery
// order. The edge's hash is computed from the kind strings the first time
// the tracker sees the edge and reused after. Caller holds t.mu.
func (t *Tracker) noteHBEdge(from, to *unit) {
	c := t.cov
	key := packKey(from.kindID, to.kindID, 0)
	e := c.edges[key]
	if e == nil {
		e = &edgeSeen{hash: edgeHash(from.kind, to.kind)}
		c.edges[key] = e
	}
	if e.trial == c.trial {
		return
	}
	e.trial = c.trial
	c.hbDigest ^= e.hash
}

// noteTopLevel records a top-level callback execution for adjacency-tuple
// coverage. Caller holds t.mu.
func (t *Tracker) noteTopLevel(u *unit) {
	c := t.cov
	if c.prev1 != 0 {
		if k := packKey(c.prev1, u.kindID, 0); c.mark(c.tupleSeen, k) {
			c.tuples = append(c.tuples, k)
		}
	}
	if c.prev2 != 0 {
		if k := packKey(c.prev2, c.prev1, u.kindID); c.mark(c.tupleSeen, k) {
			c.tuples = append(c.tuples, k)
		}
	}
	c.prev2, c.prev1 = c.prev1, u.kindID
}

// noteRacingPair records that units a and b raced (conflicting accesses,
// unordered by HB). The pair is canonicalized by kind string order so
// (a,b) and (b,a) coincide. Caller holds t.mu.
func (t *Tracker) noteRacingPair(a, b *unit) {
	if b.kind < a.kind {
		a, b = b, a
	}
	c := t.cov
	if k := packKey(a.kindID, b.kindID, 0); c.mark(c.pairSeen, k) {
		c.pairs = append(c.pairs, k)
	}
}

// Coverage snapshots the trial's interleaving coverage. Safe on a nil
// receiver (returns the zero digest) and at any point during or after a
// trial; the campaign calls it once, after the trial completes.
func (t *Tracker) Coverage() CoverageDigest {
	if t == nil {
		return CoverageDigest{HBDigest: hbDigestString(0)}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cov
	d := CoverageDigest{
		HBDigest: hbDigestString(c.hbDigest),
		pairs:    append([]uint64(nil), c.pairs...), // nil when empty, fresh or reset
		tuples:   append([]uint64(nil), c.tuples...),
	}
	slices.Sort(d.pairs)
	slices.Sort(d.tuples)
	return d
}

// hbDigestString renders the edge-set digest as fixed-width hex, the same
// form the campaign journal stores schedule digests in.
func hbDigestString(d uint64) string {
	const hexDigits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = hexDigits[d&15]
		d >>= 4
	}
	return string(b[:])
}

// CoverageMap is a campaign-global record of every coverage item any trial
// has produced, keyed on packed kind IDs. Only items new to the map are
// ever rendered to strings. It is not safe for concurrent use; the corpus
// guards it with its own lock.
type CoverageMap struct {
	pairs, tuples map[uint64]bool
	digests       map[string]bool
}

// NewCoverageMap returns an empty map.
func NewCoverageMap() *CoverageMap {
	return &CoverageMap{
		pairs:   make(map[uint64]bool),
		tuples:  make(map[uint64]bool),
		digests: make(map[string]bool),
	}
}

// Fold marks d's items seen. It returns the pairs and tuples that were new
// to the map, rendered and sorted as RacingPairs and Tuples render them,
// and whether d's HB digest was new.
func (m *CoverageMap) Fold(d *CoverageDigest) (newPairs, newTuples []string, newHB bool) {
	newPairs = fold(m.pairs, d.pairs, '|')
	newTuples = fold(m.tuples, d.tuples, '>')
	if d.HBDigest != "" && !m.digests[d.HBDigest] {
		m.digests[d.HBDigest] = true
		newHB = true
	}
	return newPairs, newTuples, newHB
}

func fold(seen map[uint64]bool, keys []uint64, sep byte) []string {
	var fresh []string
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			fresh = append(fresh, kinds.render(k, sep))
		}
	}
	sort.Strings(fresh)
	return fresh
}

// Seed marks rendered items seen without reporting them — the resume path
// replays journaled coverage records through it. Malformed items are
// dropped; an empty hbDigest means none.
func (m *CoverageMap) Seed(pairs []string, hbDigest string, tuples []string) {
	for _, p := range pairs {
		if k, ok := kinds.parse(p, '|'); ok {
			m.pairs[k] = true
		}
	}
	for _, tu := range tuples {
		if k, ok := kinds.parse(tu, '>'); ok {
			m.tuples[k] = true
		}
	}
	if hbDigest != "" {
		m.digests[hbDigest] = true
	}
}

// Len reports the number of distinct racing pairs, HB digests and tuples
// seen.
func (m *CoverageMap) Len() (pairs, digests, tuples int) {
	return len(m.pairs), len(m.digests), len(m.tuples)
}
