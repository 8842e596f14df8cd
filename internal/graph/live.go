// Live rating writes: the delta overlay on top of the compacted CSR.
//
// A write (AddRating / UpdateRating / UpsertRating) touches exactly two
// nodes — the user and the item. For each it installs a freshly allocated
// merged row in the overlay map (copy-on-write, so row slices handed to
// concurrent readers stay valid), updates the live degree, and bumps the
// graph epoch. Compact folds every overlay row back into a new CSR and
// clears the overlay; it does NOT bump the epoch, because compaction
// changes the representation, not the graph, and must not invalidate
// downstream result caches.

package graph

import (
	"fmt"
	"math"
	"sort"

	"longtailrec/internal/sparse"
)

// newCompactCSR wraps freshly built CSR storage. Split out so compaction
// reads as one pipeline.
func newCompactCSR(n int, rowPtr, colIdx []int, vals []float64) *sparse.CSR {
	return sparse.NewCSRView(n, n, rowPtr, colIdx, vals)
}

// liveRow is a node's fully merged adjacency row: base CSR row plus every
// pending write. cols is sorted ascending; degree is the row's weight sum.
// Rows are immutable once installed in the overlay.
type liveRow struct {
	cols    []int
	weights []float64
	degree  float64
}

// searchEdge finds w in a sorted column list.
func searchEdge(cols []int, w int) (int, bool) {
	k := sort.SearchInts(cols, w)
	return k, k < len(cols) && cols[k] == w
}

// Epoch returns the number of accepted live writes — edge writes and node
// admissions — since construction. Downstream caches key results on it: a
// bump means any earlier result may be stale. Reading it never takes the
// graph lock.
func (g *Bipartite) Epoch() uint64 { return g.epoch.Load() }

// PendingWrites returns how many accepted writes are sitting in the delta
// overlay, i.e. not yet folded into the CSR by Compact.
func (g *Bipartite) PendingWrites() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.overlayWrites
}

// SetCompactThreshold makes the graph fold the overlay into the CSR
// automatically once n writes have accumulated. n <= 0 disables
// auto-compaction (explicit Compact only).
func (g *Bipartite) SetCompactThreshold(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.compactThreshold = n
	g.maybeCompactLocked()
}

// writeMode selects the duplicate-handling policy of applyRating.
type writeMode int

const (
	modeAdd    writeMode = iota // edge must not exist
	modeUpdate                  // edge must exist
	modeUpsert                  // either
)

// AddUser admits one new user to the universe, returning its index. The
// node is appended at the end of the node space and starts overlay-only
// (an empty row) until the next Compact extends the CSR; existing node
// ids and row snapshots are untouched. The epoch bumps: results computed
// against the smaller universe may be stale (e.g. top-k sets that should
// now consider the newcomer's future edges).
func (g *Bipartite) AddUser() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	idx := g.uni.Load().numUsers
	g.epoch.Add(g.growLocked(1, 0))
	g.maybeCompactLocked()
	return idx
}

// AddItem admits one new item to the universe, returning its index. Same
// mechanics as AddUser.
func (g *Bipartite) AddItem() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	idx := g.uni.Load().numItems
	g.epoch.Add(g.growLocked(0, 1))
	g.maybeCompactLocked()
	return idx
}

// growLocked appends newUsers user nodes and newItems item nodes to the
// universe, installing an empty overlay row per node (the invariant that
// lets rowLocked serve nodes beyond the base CSR) and counting each
// admission as one accepted write. It returns the epoch delta (one per
// admission) WITHOUT bumping the epoch — the caller decides whether each
// write bumps individually (the single-write path) or the whole batch
// bumps once (the group-commit path). Caller holds g.mu for writing.
func (g *Bipartite) growLocked(newUsers, newItems int) uint64 {
	next := g.uni.Load().grow(newUsers, newItems)
	if g.overlay == nil {
		g.overlay = make(map[int]*liveRow)
	}
	for v := next.numNodes() - newUsers - newItems; v < next.numNodes(); v++ {
		g.overlay[v] = &liveRow{}
		g.touchNodeLocked(v)
	}
	g.uni.Store(next)
	g.overlayWrites += newUsers + newItems
	return uint64(newUsers + newItems)
}

// maybeCompactLocked folds the overlay when the auto-compaction threshold
// is reached. Caller holds g.mu for writing.
func (g *Bipartite) maybeCompactLocked() {
	if g.compactThreshold > 0 && g.overlayWrites >= g.compactThreshold {
		g.foldLocked()
	}
}

// AddRating inserts the undirected edge (user u — item i) with weight w.
// It fails if the edge already exists (use UpdateRating or UpsertRating
// for re-rates) or if w is not positive.
func (g *Bipartite) AddRating(u, i int, w float64) error {
	_, err := g.applyRating(u, i, w, modeAdd, false)
	return err
}

// UpdateRating replaces the weight of the existing edge (u — i) with w.
// It fails if the edge is absent.
func (g *Bipartite) UpdateRating(u, i int, w float64) error {
	_, err := g.applyRating(u, i, w, modeUpdate, false)
	return err
}

// UpsertRating inserts the edge (u — i) or replaces its weight if present,
// reporting whether a new edge was created. Re-rating with the identical
// weight is a no-op: the graph is unchanged, so the epoch does not move.
func (g *Bipartite) UpsertRating(u, i int, w float64) (added bool, err error) {
	return g.applyRating(u, i, w, modeUpsert, false)
}

// UpsertRatingAutoGrow is UpsertRating for an open universe: a user or
// item id at or beyond the current universe admits the missing ids (and
// everything between, so the id spaces stay dense) before the edge write,
// instead of rejecting the rating. Negative ids, and ids more than
// MaxDenseAdmissions past the current universe edge (absurd rather than
// merely unseen), are still rejected with an out-of-range error. Each
// admitted node and the edge write itself bump the epoch.
func (g *Bipartite) UpsertRatingAutoGrow(u, i int, w float64) (added bool, err error) {
	return g.applyRating(u, i, w, modeUpsert, true)
}

// CheckWrite validates one rating write against the current universe
// without applying it: the same verdict applyRating's own pre-lock
// validation would reach. The universe only grows, so a pass here cannot
// be invalidated by concurrent writes — which is what lets the durable
// write path reject garbage BEFORE logging it, so invalid operations
// never occupy write-ahead-log space or replay time.
func (g *Bipartite) CheckWrite(u, i int, w float64, autoGrow bool) error {
	uni := g.uni.Load()
	if autoGrow {
		if err := checkGrowable("user", u, uni.numUsers); err != nil {
			return err
		}
		if err := checkGrowable("item", i, uni.numItems); err != nil {
			return err
		}
	} else {
		if u < 0 || u >= uni.numUsers {
			return fmt.Errorf("graph: user %d out of range [0,%d)", u, uni.numUsers)
		}
		if i < 0 || i >= uni.numItems {
			return fmt.Errorf("graph: item %d out of range [0,%d)", i, uni.numItems)
		}
	}
	return checkWeight(w)
}

// checkWeight is the edge-weight rule of every graph write, batch and
// live. !(w > 0) also rejects NaN, which would otherwise poison degrees
// and totalWeight irreversibly; +Inf is rejected for the same reason.
func checkWeight(w float64) error {
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("graph: edge weight %v must be positive and finite", w)
	}
	return nil
}

// applyRating validates and applies one write under the graph lock.
func (g *Bipartite) applyRating(u, i int, w float64, mode writeMode, autoGrow bool) (added bool, err error) {
	// The universe only grows, so a pre-lock validation verdict of "in
	// range" cannot be invalidated before the lock is taken.
	if err := g.CheckWrite(u, i, w, autoGrow); err != nil {
		return false, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	added, delta, err := g.applyRatingLocked(u, i, w, mode, autoGrow)
	g.epoch.Add(delta)
	g.maybeCompactLocked()
	return added, err
}

// applyRatingLocked applies one pre-validated write, returning the epoch
// delta it earned (admissions plus the edge write; zero for no-ops and
// failures) WITHOUT bumping the epoch: the single-write path bumps per
// write, the batch path accumulates and bumps once — so a batch of
// concurrent writers invalidates downstream caches with one epoch
// transition instead of one per write. Caller holds g.mu for writing and
// owns auto-compaction.
func (g *Bipartite) applyRatingLocked(u, i int, w float64, mode writeMode, autoGrow bool) (added bool, delta uint64, err error) {
	if autoGrow {
		// Re-read under the lock: another write may have grown the universe
		// since validation, and the deficit must be computed against the
		// universe this grow will actually extend.
		uni := g.uni.Load()
		newUsers, newItems := max(u-uni.numUsers+1, 0), max(i-uni.numItems+1, 0)
		if newUsers > 0 || newItems > 0 {
			delta += g.growLocked(newUsers, newItems)
		}
	}
	uni := g.uni.Load()
	un, in := uni.userNode(u), uni.itemNode(i)

	cols, weights := g.rowLocked(un)
	k, exists := searchEdge(cols, in)
	switch {
	case exists && mode == modeAdd:
		return false, delta, fmt.Errorf("graph: rating (user %d, item %d) already exists", u, i)
	case !exists && mode == modeUpdate:
		return false, delta, fmt.Errorf("graph: rating (user %d, item %d) does not exist", u, i)
	}
	old := 0.0
	if exists {
		old = weights[k]
		if old == w {
			return false, delta, nil // true no-op: no epoch for the edge
		}
	}
	g.setEdgeLocked(un, in, w)
	g.setEdgeLocked(in, un, w)
	g.touchNodeLocked(un)
	g.touchNodeLocked(in)
	g.weightDelta += 2 * (w - old)
	if !exists {
		g.edgeDelta++
	}
	g.overlayWrites++
	return !exists, delta + 1, nil
}

// WriteOp is one rating write of a batch: an upsert, admitting unseen
// ids first when AutoGrow is set.
type WriteOp struct {
	User, Item int
	Score      float64
	AutoGrow   bool
}

// WriteResult is one WriteOp's outcome.
type WriteResult struct {
	// Added reports whether a new edge was created (false for re-rates,
	// no-ops and failures).
	Added bool
	// Err is the per-op verdict; other ops in the batch are unaffected.
	Err error
}

// UpsertRatingsBatch applies a batch of upserts under ONE lock
// acquisition with ONE epoch bump covering every accepted write — the
// group-commit write path. The epoch still advances by exactly the
// number of accepted writes (admissions + edge writes), preserving the
// "epoch = total accepted writes" meaning; what batching changes is the
// number of distinct epoch transitions downstream caches observe: one
// per batch instead of one per write. Results align with ops by index;
// a failed op does not disturb its neighbors. Auto-compaction runs once,
// after the whole batch.
func (g *Bipartite) UpsertRatingsBatch(ops []WriteOp) []WriteResult {
	results := make([]WriteResult, len(ops))
	if len(ops) == 0 {
		return results
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var delta uint64
	for k, op := range ops {
		// Validate inside the lock: earlier ops of this very batch may
		// have grown the universe the later ops depend on.
		if err := g.CheckWrite(op.User, op.Item, op.Score, op.AutoGrow); err != nil {
			results[k] = WriteResult{Err: err}
			continue
		}
		added, d, err := g.applyRatingLocked(op.User, op.Item, op.Score, modeUpsert, op.AutoGrow)
		results[k] = WriteResult{Added: added, Err: err}
		delta += d
	}
	g.epoch.Add(delta)
	g.maybeCompactLocked()
	return results
}

// setEdgeLocked installs a fresh overlay row for node v with the edge to w
// set to weight (inserting or replacing). Caller holds g.mu for writing.
func (g *Bipartite) setEdgeLocked(v, w int, weight float64) {
	cols, weights := g.rowLocked(v)
	k, exists := searchEdge(cols, w)
	row := &liveRow{degree: g.degreeLocked(v)}
	if exists {
		row.cols = append(make([]int, 0, len(cols)), cols...)
		row.weights = append(make([]float64, 0, len(weights)), weights...)
		row.degree += weight - row.weights[k]
		row.weights[k] = weight
	} else {
		row.cols = make([]int, 0, len(cols)+1)
		row.cols = append(append(append(row.cols, cols[:k]...), w), cols[k:]...)
		row.weights = make([]float64, 0, len(weights)+1)
		row.weights = append(append(append(row.weights, weights[:k]...), weight), weights[k:]...)
		row.degree += weight
	}
	if g.overlay == nil {
		g.overlay = make(map[int]*liveRow)
	}
	g.overlay[v] = row
}

// Compact folds every pending overlay row into a freshly built CSR —
// sized to the current universe, so nodes admitted since the last
// compaction get real (possibly empty) CSR rows — and publishes it as the
// new base, clearing the overlay. The graph content is unchanged, so no
// epoch is bumped and cached results keyed on epochs stay valid. Readers
// holding row slices from before the compaction are unaffected (the old
// storage is never mutated).
func (g *Bipartite) Compact() {
	g.mu.Lock()
	g.foldLocked()
	g.mu.Unlock()
}

// foldLocked merges the overlay into a freshly built CSR, publishes it as
// the new base and clears the overlay and drift counters. Caller holds
// g.mu for writing. Content-neutral: no epoch moves and nothing is
// journaled. With the overlay empty it only resets the pending-write
// counter — the base (and thus Adjacency identity) is untouched.
func (g *Bipartite) foldLocked() {
	if len(g.overlay) == 0 {
		g.overlayWrites = 0
		return
	}
	base := g.base.Load()
	n := g.uni.Load().numNodes()
	numEdges := base.numEdges + g.edgeDelta
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, 2*numEdges)
	vals := make([]float64, 0, 2*numEdges)
	degrees := make([]float64, n)
	for v := 0; v < n; v++ {
		cols, ws := g.rowLocked(v)
		colIdx = append(colIdx, cols...)
		vals = append(vals, ws...)
		rowPtr[v+1] = len(colIdx)
		degrees[v] = g.degreeLocked(v)
	}
	g.base.Store(&baseSnapshot{
		adj:         newCompactCSR(n, rowPtr, colIdx, vals),
		degrees:     degrees,
		totalWeight: base.totalWeight + g.weightDelta,
		numEdges:    numEdges,
	})
	g.overlay = nil
	g.overlayWrites = 0
	g.weightDelta = 0
	g.edgeDelta = 0
}
