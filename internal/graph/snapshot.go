// Atomic whole-graph snapshots for persistence.
//
// Snapshot reads every live edge — base CSR plus the pending delta overlay
// — under one read lock, so a serialized graph never silently drops
// uncompacted writes, and carries the epoch so a reloaded graph resumes
// the same cache-invalidation counter instead of restarting at zero (which
// would let results cached against the pre-save graph be served against
// the post-load one).

package graph

import "fmt"

// GraphSnapshot is a point-in-time, self-contained copy of a Bipartite:
// universe sizes, write epoch, and every undirected edge exactly once
// (listed from the user side). Node ids are canonicalized — a graph grown
// live reloads with the standard contiguous numbering — but user indices,
// item indices, edges and the epoch are preserved exactly.
//
// Canonicalization deliberately resets the base/live universe split: the
// reloaded graph's BaseNumUsers/BaseNumItems equal the snapshot's full
// (grown) sizes, as if the graph had been built from the grown corpus.
// Models trained on the pre-growth corpus therefore do not carry over a
// reloaded graph — their vectors fail the base-universe validation loudly
// instead of silently mis-indexing; retrain them against the snapshot
// (the loss-free input it exists to provide) before serving.
type GraphSnapshot struct {
	NumUsers, NumItems int
	Epoch              uint64
	Ratings            []Rating
}

// Snapshot captures the live graph, including pending overlay writes and
// nodes admitted since the last compaction. The copy is atomic: one read
// lock spans the whole traversal, so a concurrent writer cannot tear it.
func (g *Bipartite) Snapshot() GraphSnapshot {
	g.mu.RLock()
	defer g.mu.RUnlock()
	uni := g.uni.Load()
	snap := GraphSnapshot{
		NumUsers: uni.numUsers,
		NumItems: uni.numItems,
		Epoch:    g.epoch.Load(),
		Ratings:  make([]Rating, 0, g.base.Load().numEdges+g.edgeDelta),
	}
	for u := 0; u < uni.numUsers; u++ {
		cols, weights := g.rowLocked(uni.userNode(u))
		for k, v := range cols {
			snap.Ratings = append(snap.Ratings, Rating{User: u, Item: uni.itemIndex(v), Weight: weights[k]})
		}
	}
	return snap
}

// FromSnapshot rebuilds a graph from a snapshot: batch-built over the
// snapshot universe with the recorded epoch restored. The edge set and
// every per-index quantity (weights, degrees, popularity) match the
// snapshotted graph; node ids follow the standard contiguous layout and
// the snapshot universe becomes the new base (see GraphSnapshot).
func FromSnapshot(snap GraphSnapshot) (*Bipartite, error) {
	g, err := FromRatings(snap.NumUsers, snap.NumItems, snap.Ratings)
	if err != nil {
		return nil, err
	}
	g.epoch.Store(snap.Epoch)
	return g, nil
}

// FromSnapshotWithBase rebuilds a graph from a snapshot while preserving
// the original base/live universe split: the first baseUsers users and
// baseItems items form the compiled base universe, everything beyond is
// re-admitted as live growth. This is the checkpoint-restore path — a
// server that trained entropy models against the dataset universe and
// then admitted users live must come back with the SAME BaseNumUsers and
// BaseNumItems, or the trained vectors would fail base-universe
// validation (or worse, silently mis-index) against a base that
// swallowed the growth. Edge set, universe sizes and epoch match the
// snapshot exactly, as with FromSnapshot.
func FromSnapshotWithBase(snap GraphSnapshot, baseUsers, baseItems int) (*Bipartite, error) {
	if baseUsers < 0 || baseUsers > snap.NumUsers {
		return nil, fmt.Errorf("graph: base users %d outside snapshot universe [0,%d]", baseUsers, snap.NumUsers)
	}
	if baseItems < 0 || baseItems > snap.NumItems {
		return nil, fmt.Errorf("graph: base items %d outside snapshot universe [0,%d]", baseItems, snap.NumItems)
	}
	base := make([]Rating, 0, len(snap.Ratings))
	grown := make([]Rating, 0)
	for _, r := range snap.Ratings {
		if r.User < baseUsers && r.Item < baseItems {
			base = append(base, r)
		} else {
			grown = append(grown, r)
		}
	}
	g, err := FromRatings(baseUsers, baseItems, base)
	if err != nil {
		return nil, err
	}
	for u := baseUsers; u < snap.NumUsers; u++ {
		g.AddUser()
	}
	for i := baseItems; i < snap.NumItems; i++ {
		g.AddItem()
	}
	for _, r := range grown {
		if _, err := g.UpsertRating(r.User, r.Item, r.Weight); err != nil {
			return nil, fmt.Errorf("graph: restoring grown edge (%d,%d): %w", r.User, r.Item, err)
		}
	}
	// Replayed admissions and edge writes moved the epoch; the snapshot's
	// recorded epoch is the authoritative resume point.
	g.Compact()
	g.epoch.Store(snap.Epoch)
	return g, nil
}
