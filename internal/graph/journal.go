// Write journal + subgraph fingerprints: the machinery behind fine-grained
// cache invalidation.
//
// Every accepted live write touches exactly two nodes (the user and the
// item; a node admission touches one). The graph records those node ids in
// a small bounded ring journal whose monotone head is its
// write-generation counter, and keeps a per-node last-write generation map.
// A walk result depends only on its extracted subgraph, so a cached result
// fingerprinted with (journal watermark at extraction, bloom of subgraph
// node ids) can be revalidated on hit: scan the journal entries newer than
// the watermark; if none of the touched nodes can be in the bloom, the
// result is provably unchanged even though the epoch moved. Journal
// overflow — more than journalCap writes since the entry was built —
// degrades soundly to "stale".
//
// The journal lives with the overlay machinery: writers append under the
// graph's write lock (applyRatingLocked / growLocked), while
// CheckFingerprint readers are lock-free (atomic head + atomic slots, with
// a post-scan overflow recheck guarding torn slot reads). A fold
// publishes a new base but changes no graph content, so it records nothing
// — the same contract as the epoch invariant (INVARIANTS.md).

package graph

import "sync/atomic"

const (
	// journalCap is the ring capacity: how many writes a cached entry may
	// lag behind before revalidation degrades to "stale". Power of two
	// (index masking); 2048 slots = 16 KiB per graph.
	journalCap = 2048

	fpWords  = 64           // bloom filter words
	fpBits   = fpWords * 64 // 4096 bits
	fpProbes = 3            // hash probes per node
)

// writeJournal is the graph's bounded ring of recently-touched node ids.
// head is the graph's write generation: the total number of node touches
// (2 per edge write, 1 per admission) since construction. Slot (s-1) mod
// journalCap holds the node touched by generation s. Writers append under
// the graph's write lock; readers are lock-free.
type writeJournal struct {
	head  atomic.Uint64
	slots [journalCap]atomic.Uint64
}

// touchNodeLocked records node v as written: bumps the graph's write
// generation, journals v, and updates v's per-node generation counter.
// Caller holds g.mu for writing (the journal's only writer ordering).
func (g *Bipartite) touchNodeLocked(v int) {
	seq := g.journal.head.Load() + 1
	// Slot store strictly before head store: a reader that observed head
	// >= seq is guaranteed to read this slot's value, not a stale one.
	g.journal.slots[(seq-1)&(journalCap-1)].Store(uint64(v))
	g.journal.head.Store(seq)
	if g.nodeGens == nil {
		g.nodeGens = make(map[int]uint64)
	}
	g.nodeGens[v] = seq
}

// WriteGen returns the graph's current write generation — the journal
// watermark subgraph fingerprints are stamped with. Lock-free.
func (g *Bipartite) WriteGen() uint64 { return g.journal.head.Load() }

// NodeGen returns the write generation of node v's most recent accepted
// write (0 if v was never written live). Admissions count: a freshly
// admitted node carries the generation of its admission.
func (g *Bipartite) NodeGen(v int) uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodeGens[v]
}

// FingerprintStatus is CheckFingerprint's verdict.
type FingerprintStatus int

const (
	// FingerprintFresh: no write since the fingerprint's watermark can have
	// touched a node in its set — the cached result is provably current.
	FingerprintFresh FingerprintStatus = iota
	// FingerprintStale: some write since the watermark touched a node the
	// bloom may contain — the result must be recomputed.
	FingerprintStale
	// FingerprintOverflow: the journal no longer covers the span since the
	// watermark (too many writes); soundly degraded to stale.
	FingerprintOverflow
)

// Fingerprint is a cached result's dependency set: the write-generation
// watermark of the graph it was computed against plus a fixed-size bloom
// filter of the extracted subgraph's node ids. The zero value is invalid
// (entries carrying it revalidate epoch-exactly). It is a value type — no
// heap allocation to produce, copy or store one.
type Fingerprint struct {
	// Gen is the producing graph's write generation at extraction time.
	Gen   uint64
	ok    bool
	words [fpWords]uint64
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash for node ids.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Reset clears the fingerprint and stamps it valid at watermark gen.
//
//ltr:allocfree
func (fp *Fingerprint) Reset(gen uint64) {
	*fp = Fingerprint{Gen: gen, ok: true}
}

// Invalidate marks the fingerprint unusable: holders fall back to
// epoch-exact validation. Used when a result depends on more than its
// subgraph (e.g. the global popularity vector under LongTailOnly).
func (fp *Fingerprint) Invalidate() { fp.ok = false }

// Valid reports whether the fingerprint can be revalidated against a
// journal. The zero value is invalid.
func (fp *Fingerprint) Valid() bool { return fp.ok }

// AddNode inserts node id v into the bloom set (double hashing: fpProbes
// positions derived from one splitmix64 evaluation).
//
//ltr:allocfree
func (fp *Fingerprint) AddNode(v int) {
	h := splitmix64(uint64(v))
	h1, h2 := h>>32, h|1
	for i := uint64(0); i < fpProbes; i++ {
		pos := (h1 + i*h2) & (fpBits - 1)
		fp.words[pos>>6] |= 1 << (pos & 63)
	}
}

// MayContain reports whether node id v may be in the set. False positives
// (≈ (fill)^k) cost a spurious recomputation; false negatives cannot occur.
//
//ltr:allocfree
func (fp *Fingerprint) MayContain(v int) bool {
	h := splitmix64(uint64(v))
	h1, h2 := h>>32, h|1
	for i := uint64(0); i < fpProbes; i++ {
		pos := (h1 + i*h2) & (fpBits - 1)
		if fp.words[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// CheckFingerprint revalidates a cached result's fingerprint against this
// graph's write journal: scan every journaled write newer than fp.Gen; if
// none touched a node the bloom may contain, the result is Fresh despite
// the epoch having moved. Lock-free — safe to call from cache lookups
// concurrent with writers; a concurrent overwrite of a scanned slot is
// caught by the post-scan overflow recheck (a slot can only be reused
// after journalCap further writes, which the recheck observes).
//
//ltr:allocfree
func (g *Bipartite) CheckFingerprint(fp *Fingerprint) FingerprintStatus {
	h := g.journal.head.Load()
	if h == fp.Gen {
		return FingerprintFresh
	}
	if h < fp.Gen {
		// A watermark from a different journal lifetime (e.g. an entry
		// surviving a snapshot restore); nothing provable — stale.
		return FingerprintStale
	}
	// >= rather than >: one slot of headroom guards the in-flight case
	// where a writer has stored its slot but not yet published head.
	if h-fp.Gen >= journalCap {
		return FingerprintOverflow
	}
	for s := fp.Gen + 1; s <= h; s++ {
		v := g.journal.slots[(s-1)&(journalCap-1)].Load()
		if fp.MayContain(int(v)) {
			return FingerprintStale
		}
	}
	if g.journal.head.Load()-fp.Gen >= journalCap {
		// Writers lapped the ring during the scan: some slot read above may
		// have been torn. Soundly degrade.
		return FingerprintOverflow
	}
	return FingerprintFresh
}
