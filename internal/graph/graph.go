// Package graph models the undirected, edge-weighted user–item bipartite
// graph of Section 3.1 of the paper: users and items are nodes, a rating
// w(u,i) is an undirected edge whose weight is the rating score.
//
// Node numbering convention (used throughout the library): for the
// universe the graph was built with, user u occupies node u and item i
// occupies node NumUsers+i. Users and items admitted live (AddUser,
// AddItem, UpsertRatingAutoGrow — see universe.go) are appended at the end
// of the node space in arrival order, so existing node ids never move;
// UserNode/ItemNode/UserIndex/ItemIndex are the authoritative mapping. The
// adjacency matrix is stored symmetric in CSR form, so random-walk
// transition probabilities p_ij = a(i,j)/d_i (Eq. 1) fall out of row
// normalization.
//
// A Bipartite is built in bulk (Builder) and then serves reads; on top of
// the frozen CSR it also accepts live rating writes through a delta
// overlay (see live.go): AddRating/UpdateRating/UpsertRating mutate a
// per-node copy-on-write overlay that Compact folds back into the CSR,
// and every accepted write — including a universe-growing node admission —
// bumps a monotonically increasing graph epoch that downstream caches key
// on. Reads are safe concurrently with one writer; rows returned by
// Neighbors are immutable snapshots.
package graph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"longtailrec/internal/sparse"
)

// Rating is one user–item edge with its weight (the rating score).
type Rating struct {
	User, Item int
	Weight     float64
}

// Bipartite is a user–item graph over a growable user/item universe —
// precisely, one VIEW over a shared immutable base (see shared.go). The
// bulk of the adjacency lives in the shared compacted CSR; live writes
// accumulate in this view's sparse per-node overlay until Compact (or the
// auto-compaction threshold) folds them, and nodes admitted live stay
// overlay-only (an empty row on the admitting view) until the next fold
// extends the CSR. A standalone graph is a shared state with exactly one
// view, so the single-graph behavior is unchanged; ShareViews splits one
// graph into N views for sharded serving. All exported methods are safe
// for concurrent use.
type Bipartite struct {
	// shared holds the storage common to every view: the immutable base
	// snapshot (CSR + degrees + aggregates) and the node universe, both
	// behind atomic pointers so identity accessors (NumUsers, UserNode,
	// IsItemNode, ...) never take the graph lock and are safe to call from
	// code already holding it in either mode. Set at construction, never
	// reassigned.
	shared *sharedState

	// epoch counts THIS VIEW's accepted live writes (edge writes and node
	// admissions) since construction; it is atomic so cache lookups can
	// read it without taking the graph lock. A group fold moves no epoch.
	epoch atomic.Uint64

	// mu is this view's lock: RLock for reads of overlay/deltas, Lock for
	// writes. Participates in the fleet-wide lock protocol — the group
	// fold takes EVERY view's mu in construction order (ltr-vet enforces
	// the protocol; see internal/analysis/lockorder).
	mu sync.RWMutex //ltr:viewmu

	// overlay maps a node id to its full live row (base row merged with
	// every pending write this view accepted touching it). Rows are
	// copy-on-write: a write always installs a freshly allocated row, so
	// slices previously handed to readers stay valid forever. A node beyond
	// the shared CSR's row count without an overlay row reads as an empty
	// row (it was admitted through a sibling view and has no edges here).
	overlay          map[int]*liveRow
	overlayWrites    int     // accepted writes since the last fold
	weightDelta      float64 // this view's totalWeight drift vs the base
	edgeDelta        int     // this view's numEdges drift vs the base
	compactThreshold int     // auto-fold when overlayWrites reaches this; <= 0 disables (single view only)

	// journal is the bounded ring of recently-touched node ids behind
	// fine-grained cache invalidation (see journal.go). Appended to under
	// mu alongside the overlay; read lock-free by CheckFingerprint. A fold
	// records nothing — folding changes representation, not content.
	journal writeJournal
	// nodeGens maps a node id to the write generation of its most recent
	// accepted write on this view. Guarded by mu; allocated lazily like the
	// overlay.
	nodeGens map[int]uint64

	// popularity is the last ItemPopularity result, reused until this
	// view's write generation, the shared base or the universe moves.
	popularity atomic.Pointer[popularityMemo]
}

// Builder accumulates ratings before freezing them into a Bipartite.
type Builder struct {
	numUsers, numItems int
	coo                *sparse.COO
}

// NewBuilder creates a builder for a graph with the given universe sizes.
func NewBuilder(numUsers, numItems int) *Builder {
	if numUsers < 0 || numItems < 0 {
		panic(fmt.Sprintf("graph: NewBuilder(%d, %d)", numUsers, numItems))
	}
	n := numUsers + numItems
	return &Builder{
		numUsers: numUsers,
		numItems: numItems,
		coo:      sparse.NewCOO(n, n),
	}
}

// AddRating records the undirected edge (user u — item i) with weight w.
// Duplicate pairs are summed. Non-positive weights are rejected since the
// paper's graph has strictly positive edge weights.
func (b *Builder) AddRating(u, i int, w float64) error {
	if u < 0 || u >= b.numUsers {
		return fmt.Errorf("graph: user %d out of range [0,%d)", u, b.numUsers)
	}
	if i < 0 || i >= b.numItems {
		return fmt.Errorf("graph: item %d out of range [0,%d)", i, b.numItems)
	}
	if w <= 0 {
		return fmt.Errorf("graph: edge weight %v must be positive", w)
	}
	un, in := u, b.numUsers+i
	b.coo.Add(un, in, w)
	b.coo.Add(in, un, w)
	return nil
}

// Build freezes the builder into a graph (epoch 0, empty overlay): a
// single view over its own freshly built base snapshot.
func (b *Builder) Build() *Bipartite {
	adj := b.coo.ToCSR()
	n := b.numUsers + b.numItems
	base := &baseSnapshot{
		adj:      adj,
		degrees:  make([]float64, n),
		numEdges: adj.NNZ() / 2,
	}
	for v := 0; v < n; v++ {
		d := adj.RowSum(v)
		base.degrees[v] = d
		base.totalWeight += d
	}
	g := &Bipartite{shared: &sharedState{}}
	g.shared.uni.Store(newBaseUniverse(b.numUsers, b.numItems))
	g.shared.base.Store(base)
	g.shared.views = []*Bipartite{g}
	return g
}

// FromRatings builds a graph directly from a rating slice.
func FromRatings(numUsers, numItems int, ratings []Rating) (*Bipartite, error) {
	b := NewBuilder(numUsers, numItems)
	for _, r := range ratings {
		if err := b.AddRating(r.User, r.Item, r.Weight); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// NumUsers returns the current number of user nodes (live: node
// admissions grow it).
func (g *Bipartite) NumUsers() int { return g.shared.uni.Load().numUsers }

// NumItems returns the current number of item nodes (live).
func (g *Bipartite) NumItems() int { return g.shared.uni.Load().numItems }

// NumNodes returns the total node count (live).
func (g *Bipartite) NumNodes() int { return g.shared.uni.Load().numNodes() }

// BaseNumUsers returns the user-universe size frozen at Build, before any
// live admissions — the universe that snapshot-trained models cover.
func (g *Bipartite) BaseNumUsers() int { return g.shared.uni.Load().baseUsers }

// BaseNumItems returns the item-universe size frozen at Build.
func (g *Bipartite) BaseNumItems() int { return g.shared.uni.Load().baseItems }

// NumEdges returns the number of undirected edges, including pending
// overlay writes.
func (g *Bipartite) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.shared.base.Load().numEdges + g.edgeDelta
}

// UserNode maps a user index to its node id.
func (g *Bipartite) UserNode(u int) int {
	uni := g.shared.uni.Load()
	if u < 0 || u >= uni.numUsers {
		panic(fmt.Sprintf("graph: user %d out of range", u))
	}
	return uni.userNode(u)
}

// ItemNode maps an item index to its node id.
func (g *Bipartite) ItemNode(i int) int {
	uni := g.shared.uni.Load()
	if i < 0 || i >= uni.numItems {
		panic(fmt.Sprintf("graph: item %d out of range", i))
	}
	return uni.itemNode(i)
}

// IsUserNode reports whether node v is a user.
func (g *Bipartite) IsUserNode(v int) bool { return g.shared.uni.Load().isUser(v) }

// IsItemNode reports whether node v is an item.
func (g *Bipartite) IsItemNode(v int) bool { return g.shared.uni.Load().isItem(v) }

// UserIndex maps a user node id back to its user index.
func (g *Bipartite) UserIndex(v int) int {
	uni := g.shared.uni.Load()
	if !uni.isUser(v) {
		panic(fmt.Sprintf("graph: node %d is not a user", v))
	}
	return uni.userIndex(v)
}

// ItemIndex maps an item node id back to its item index.
func (g *Bipartite) ItemIndex(v int) int {
	uni := g.shared.uni.Load()
	if !uni.isItem(v) {
		panic(fmt.Sprintf("graph: node %d is not an item", v))
	}
	return uni.itemIndex(v)
}

// rowLocked returns the live row of node v: the overlay row when v has
// pending writes, the base CSR row otherwise; a node beyond the base (a
// sibling view's admission this view has no writes for) reads as an empty
// row. Caller holds g.mu (either mode), which pins the base (a group fold
// needs every view's write lock). The returned slices are immutable.
func (g *Bipartite) rowLocked(v int) (cols []int, weights []float64) {
	if r, ok := g.overlay[v]; ok {
		return r.cols, r.weights
	}
	if base := g.shared.base.Load(); v < len(base.degrees) {
		return base.adj.Row(v)
	}
	return nil, nil
}

// degreeLocked returns the live weighted degree of v. Caller holds g.mu.
func (g *Bipartite) degreeLocked(v int) float64 {
	if r, ok := g.overlay[v]; ok {
		return r.degree
	}
	if base := g.shared.base.Load(); v < len(base.degrees) {
		return base.degrees[v]
	}
	return 0
}

// Degree returns the live weighted degree d_v of node v.
func (g *Bipartite) Degree(v int) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.degreeLocked(v)
}

// Degrees returns the live weighted degree vector. When no writes are
// pending this aliases internal storage (do not modify); with a non-empty
// overlay it is a freshly allocated merged copy. Nodes admitted since the
// last compaction are included (they live in the overlay until then).
func (g *Bipartite) Degrees() []float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	base := g.shared.base.Load()
	n := g.shared.uni.Load().numNodes()
	if len(g.overlay) == 0 && n == len(base.degrees) {
		return base.degrees
	}
	out := make([]float64, n)
	copy(out, base.degrees)
	for v, r := range g.overlay {
		out[v] = r.degree
	}
	return out
}

// TotalWeight returns Σ_ij a(i,j) with each undirected edge counted twice,
// the normalizer of the stationary distribution (Eq. 2). Live.
func (g *Bipartite) TotalWeight() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.shared.base.Load().totalWeight + g.weightDelta
}

// Adjacency returns the compacted symmetric adjacency matrix (shared; do
// not modify). It is a snapshot: pending overlay writes are NOT included —
// call Compact first for a fully merged view, or use Neighbors for live
// per-node rows.
func (g *Bipartite) Adjacency() *sparse.CSR {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.shared.base.Load().adj
}

// Neighbors returns the adjacent node ids and edge weights of v, including
// pending overlay writes. The slices are immutable snapshots: they stay
// valid indefinitely (later writes install fresh rows rather than mutating
// them) but no longer reflect the graph once v is written to again.
func (g *Bipartite) Neighbors(v int) (nodes []int, weights []float64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.rowLocked(v)
}

// Weight returns the live edge weight between nodes v and w (0 if absent).
func (g *Bipartite) Weight(v, w int) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	cols, weights := g.rowLocked(v)
	if k, ok := searchEdge(cols, w); ok {
		return weights[k]
	}
	return 0
}

// Stationary returns the stationary distribution π of the random walk
// (Eq. 2): π_v = d_v / Σ_w d_w. Nodes in different components still get
// degree-proportional mass, consistent with the formula.
func (g *Bipartite) Stationary() []float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	pi := make([]float64, g.NumNodes())
	total := g.shared.base.Load().totalWeight + g.weightDelta
	if total == 0 {
		return pi
	}
	for v := range pi {
		pi[v] = g.degreeLocked(v) / total
	}
	return pi
}

// popularityMemo is one published ItemPopularity result together with the
// state it was counted from. Immutable once stored.
type popularityMemo struct {
	gen  uint64        // the view's write generation
	base *baseSnapshot // what the view's unwritten rows count from
	uni  *universe     // how long the vector is
	pop  []int
}

// current reports whether nothing that can change the view's rater counts
// has happened since m was counted: every edge write and admission on this
// view moves the write generation, a group fold (which makes siblings'
// writes visible in this view's base rows) swaps the base pointer, and an
// admission through any view swaps the universe pointer. None of the three
// is ever set back — unlike the epoch, which RestoreEpoch may rewind.
func (m *popularityMemo) current(g *Bipartite) bool {
	return m != nil && m.gen == g.journal.head.Load() &&
		m.base == g.shared.base.Load() && m.uni == g.shared.uni.Load()
}

// ItemPopularity returns, for every item, the number of users who rated it
// (its rating frequency — the paper's popularity measure in §5.2.2). Live.
// The vector is memoised: between writes every call returns the same
// shared slice at the cost of a few atomic loads, and the first call after
// a write, admission or fold recounts the catalog once. Like Degrees, the
// result aliases internal storage — do not modify.
func (g *Bipartite) ItemPopularity() []int {
	if m := g.popularity.Load(); m.current(g) {
		return m.pop
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	// The key is read under the same read lock as the rows it describes:
	// every change to either needs the write lock.
	m := &popularityMemo{gen: g.journal.head.Load(), base: g.shared.base.Load(), uni: g.shared.uni.Load()}
	m.pop = make([]int, m.uni.numItems)
	for i := range m.pop {
		v := m.uni.itemNode(i)
		if r, ok := g.overlay[v]; ok {
			m.pop[i] = len(r.cols)
		} else if v < len(m.base.degrees) {
			m.pop[i] = m.base.adj.RowNNZ(v)
		}
	}
	g.popularity.Store(m)
	return m.pop
}

// UserItems returns the item indices rated by user u (the set S_u) along
// with the rating weights. The returned slices are freshly allocated.
func (g *Bipartite) UserItems(u int) (items []int, weights []float64) {
	nodes, ws := g.Neighbors(g.UserNode(u))
	items = make([]int, len(nodes))
	weights = make([]float64, len(nodes))
	for k, v := range nodes {
		items[k] = g.ItemIndex(v)
		weights[k] = ws[k]
	}
	return items, weights
}

// ConnectedComponents labels every node with a component id (0-based,
// ordered by discovery) and returns the labels plus the component count.
// Isolated nodes (degree 0) each form their own component.
func (g *Bipartite) ConnectedComponents() (labels []int, count int) {
	n := g.NumNodes()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		labels[start] = count
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			nbrs, _ := g.Neighbors(v)
			for _, w := range nbrs {
				if labels[w] == -1 {
					labels[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return labels, count
}
