// Package shard turns the single mutable serving stack (one graph, one
// epoch, one result cache) into a fleet of user-partitioned replicas.
//
// Every replica holds a full copy of the corpus graph plus its own epoch
// counter and result cache; users are assigned to replicas by the pure
// function Assign, so the assignment is consistent across restarts and
// survives auto-grow admissions (a user id always hashes to the same
// shard, no matter when it first appears). Reads for user u are served by
// replica Assign(u, N); a live rating write routes to exactly that
// replica, bumps only that replica's epoch and therefore invalidates only
// that replica's cached results — the other N−1 shards' caches stay warm.
// That confinement is the point: with one global epoch, one write per
// second kills every cached recommendation for every user every second;
// with N shards the blast radius is 1/N of the fleet.
//
// The trade-off is deliberate and standard for replicated serving: a
// write lands on its user's shard only, so another user's replica serves
// walks over a graph that has not seen it (eventual consistency across
// shards; read-your-own-writes holds per user, because reads and writes
// route identically). Fresh fleets built from the same dataset are
// byte-identical, so at N=1 the fleet is exactly the old single-replica
// stack.
//
// The package has two layers: Fleet owns the replicas and the write/stat
// surfaces (routing ApplyRating, aggregating epochs, universes and cache
// counters), while Router wraps one recommender per replica into a single
// core.Recommender that runs each request on its user's shard.
package shard

import (
	"fmt"
	"sync/atomic"

	"longtailrec/internal/cache"
	"longtailrec/internal/core"
	"longtailrec/internal/graph"
	"longtailrec/internal/wal"
)

// Assign maps a user id to its shard: the one consistent user→shard
// assignment the whole serving stack shares (reads, writes, stats and
// tests must never disagree on it). It is a pure function of the id, so
// it survives auto-grow admissions: a user admitted live lands on the
// same shard every later request routes to. Ids are dense (the graph
// layer keeps them so), so a plain modulus balances the fleet; negative
// ids (sentinels like the "raw popularity" -1) wrap into range rather
// than panicking.
//
//ltr:allocfree
func Assign(user, numShards int) int {
	if numShards <= 1 {
		return 0
	}
	s := user % numShards
	if s < 0 {
		s += numShards
	}
	return s
}

// Replica is one shard's serving state: a full graph replica with its own
// epoch (the graph carries it) and its own result cache. Cache is nil
// when result caching is disabled. Cached entries carry their dependency
// fingerprints and revalidate against THIS replica's write journal (each
// view journals only the writes routed to it), so the per-shard
// isolation invariant extends below the epoch: a write can only evict
// entries on its own shard, and there only the entries whose subgraph it
// plausibly touched.
type Replica struct {
	Graph *graph.Bipartite
	Cache *cache.Cache[core.CacheEntry]
}

// Fleet owns N replicas and routes the write/stat surfaces across them.
// All methods are safe for concurrent use (each replica's graph and cache
// are; the replica slice itself is immutable after NewFleet, and the
// durability fields are set once by EnableDurability before serving).
type Fleet struct {
	replicas []*Replica
	// sharedBase marks a fleet whose replicas are views over ONE shared
	// base snapshot (graph.ShareViews) instead of independent full graph
	// copies. It redirects compaction (one group fold instead of N),
	// popularity merging (base once + per-view deltas) and checkpointing
	// (base once + N overlays). Detected at construction.
	sharedBase bool
	// compactThreshold, when positive, makes the fleet fold pending
	// overlay writes once their fleet-wide total reaches it. Fleet-driven
	// because a shared-base view cannot fold from inside its own write
	// path (see graph.SetCompactThreshold); works for independent-replica
	// fleets too.
	compactThreshold atomic.Int64

	// Durability (nil/zero when disabled — the default): see durable.go.
	wlog          *wal.Log
	ing           *wal.Ingester[writeOutcome]
	lastCkptEpoch atomic.Uint64
}

// NewFleet builds a fleet over the given replicas (at least one, each
// with a non-nil graph). Replicas may be independent full graphs (the
// legacy layout) or views over one shared base built by graph.ShareViews;
// mixing, or sharing a base across a different number of views than
// there are replicas, is rejected — a partial share would silently break
// the one-fold-covers-everyone invariants.
func NewFleet(replicas []*Replica) (*Fleet, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("shard: fleet needs at least one replica")
	}
	for i, r := range replicas {
		if r == nil || r.Graph == nil {
			return nil, fmt.Errorf("shard: replica %d has no graph", i)
		}
	}
	shared := 0
	for _, r := range replicas[1:] {
		if replicas[0].Graph.SharesBaseWith(r.Graph) {
			shared++
		}
	}
	f := &Fleet{replicas: replicas}
	if len(replicas) > 1 && shared > 0 {
		if shared != len(replicas)-1 {
			return nil, fmt.Errorf("shard: %d of %d replicas share a base with replica 0; all or none must", shared+1, len(replicas))
		}
		if v := replicas[0].Graph.NumViews(); v != len(replicas) {
			return nil, fmt.Errorf("shard: %d replicas over a base shared by %d views", len(replicas), v)
		}
		f.sharedBase = true
	}
	return f, nil
}

// SharedBase reports whether the fleet's replicas are views over one
// shared base snapshot.
func (f *Fleet) SharedBase() bool { return f.sharedBase }

// SetCompactThreshold makes the fleet fold pending overlay writes into
// the base once the fleet-wide pending total reaches n (n <= 0 disables).
// Checked after every applied write batch.
func (f *Fleet) SetCompactThreshold(n int) {
	f.compactThreshold.Store(int64(n))
	f.maybeCompact()
}

// maybeCompact folds when the fleet-wide pending-write total has reached
// the threshold. Concurrent callers may both see the trigger; the second
// fold is then an empty-overlay no-op.
func (f *Fleet) maybeCompact() {
	if t := f.compactThreshold.Load(); t > 0 && int64(f.PendingWrites()) >= t {
		f.Compact()
	}
}

// NumShards returns the replica count.
func (f *Fleet) NumShards() int { return len(f.replicas) }

// ShardFor returns the shard index serving the given user.
func (f *Fleet) ShardFor(user int) int { return Assign(user, len(f.replicas)) }

// Replica returns shard i.
func (f *Fleet) Replica(i int) *Replica { return f.replicas[i] }

// GraphFor returns the graph replica serving the given user — the one
// that user's reads and writes both land on.
func (f *Fleet) GraphFor(user int) *graph.Bipartite {
	return f.replicas[f.ShardFor(user)].Graph
}

// ApplyRating routes one live rating write to the user's shard and
// applies it there (upsert; the auto-grow path when autoGrow is set).
// It reports whether a new edge was created, the WRITTEN SHARD's epoch
// after the write, and which shard that was. Only that shard's epoch
// moves, so only that shard's cached results are invalidated.
//
// With durability enabled (EnableDurability), the write is validated
// first, then group-committed: it rides a write-ahead-log batch and is
// acknowledged only after that batch is fsync'd and applied. A non-nil
// error from the durable path means the write took NO effect — invalid
// input, or a durability failure (retryable).
func (f *Fleet) ApplyRating(user, item int, score float64, autoGrow bool) (added bool, epoch uint64, shardIdx int, err error) {
	shardIdx = f.ShardFor(user)
	g := f.replicas[shardIdx].Graph
	if f.ing != nil {
		return f.applyDurable(g, user, item, score, shardIdx, autoGrow)
	}
	if autoGrow {
		added, err = g.UpsertRatingAutoGrow(user, item, score)
	} else {
		added, err = g.UpsertRating(user, item, score)
	}
	epoch = g.Epoch()
	f.maybeCompact()
	return added, epoch, shardIdx, err
}

// Epoch returns the fleet-wide epoch: the sum of every shard's epoch,
// i.e. the total number of accepted live writes since construction —
// the same meaning the single-replica epoch had, preserved at N=1.
func (f *Fleet) Epoch() uint64 {
	var sum uint64
	for _, r := range f.replicas {
		sum += r.Graph.Epoch()
	}
	return sum
}

// PendingWrites returns the total delta-overlay writes awaiting
// compaction across the fleet.
func (f *Fleet) PendingWrites() int {
	n := 0
	for _, r := range f.replicas {
		n += r.Graph.PendingWrites()
	}
	return n
}

// Universe returns the fleet-wide serving universe: the largest user and
// item counts across replicas. Replicas diverge only by auto-grow
// admissions, which append dense ids, so the per-side maximum is exactly
// the union of every shard's universe.
func (f *Fleet) Universe() (numUsers, numItems int) {
	for _, r := range f.replicas {
		if n := r.Graph.NumUsers(); n > numUsers {
			numUsers = n
		}
		if n := r.Graph.NumItems(); n > numItems {
			numItems = n
		}
	}
	return numUsers, numItems
}

// Compact folds every replica's pending overlay writes into its CSR.
// Content-neutral per shard: no epoch moves. On a shared-base fleet one
// group fold covers every view; calling each view's Compact would repeat
// the same (idempotent) fold N times.
func (f *Fleet) Compact() {
	if f.sharedBase {
		f.replicas[0].Graph.Compact()
		return
	}
	for _, r := range f.replicas {
		r.Graph.Compact()
	}
}

// EvictStale sweeps each replica's cache through the entry validator
// bound to that replica's OWN graph (per-shard epochs and write journals
// are independent — validating against another shard's would evict live
// entries) and returns the total number of stale entries dropped.
// Entries a fingerprint proves untouched survive the sweep even though
// their build epoch has passed.
func (f *Fleet) EvictStale() int {
	dropped := 0
	for _, r := range f.replicas {
		if r.Cache != nil {
			dropped += r.Cache.Revalidate(core.EntryValidator(r.Graph))
		}
	}
	return dropped
}

// ShardStats returns the per-shard serving breakdown, indexed by shard.
func (f *Fleet) ShardStats() []core.ShardStats {
	out := make([]core.ShardStats, len(f.replicas))
	for i, r := range f.replicas {
		st := core.ShardStats{
			Shard:         i,
			Epoch:         r.Graph.Epoch(),
			PendingWrites: r.Graph.PendingWrites(),
			NumUsers:      r.Graph.NumUsers(),
			NumItems:      r.Graph.NumItems(),
			CacheEnabled:  r.Cache != nil,
		}
		if r.Cache != nil {
			st.Cache = r.Cache.Stats()
		}
		out[i] = st
	}
	return out
}

// MergedItemPopularity returns the fleet-wide live rater count per item.
//
// On a shared-base fleet the merge is computed at the graph layer as the
// shared base counted ONCE plus every view's overlay delta
// (graph.FleetItemPopularity) — per-replica full scans would count each
// base rating N times, since the views are no longer independent copies.
// The base argument is not needed there: the fold keeps the shared
// snapshot exact.
//
// For independent replicas, base is the popularity vector of the corpus
// every replica was built from; each replica's count differs from it only
// by that replica's own accepted writes, and every write lands on exactly
// one replica, so summing the per-replica deltas over the base
// reconstructs the exact union count (items admitted live have base 0).
// With one replica this is just its live popularity — the graph's own
// memoised vector, so callers must not modify the result. The output is
// sized from the scans themselves, not a prior Universe() snapshot — an
// auto-grow admission racing this call may extend a replica's vector
// between any two reads, and a stale pre-sized slice would be indexed out
// of range.
func (f *Fleet) MergedItemPopularity(base []int) []int {
	if len(f.replicas) == 1 {
		return f.replicas[0].Graph.ItemPopularity()
	}
	if f.sharedBase {
		return f.replicas[0].Graph.FleetItemPopularity()
	}
	pops := make([][]int, len(f.replicas))
	numItems := len(base)
	for i, r := range f.replicas {
		pops[i] = r.Graph.ItemPopularity()
		if len(pops[i]) > numItems {
			numItems = len(pops[i])
		}
	}
	out := make([]int, numItems)
	copy(out, base)
	for _, pop := range pops {
		for i, p := range pop {
			b := 0
			if i < len(base) {
				b = base[i]
			}
			out[i] += p - b
		}
	}
	return out
}
