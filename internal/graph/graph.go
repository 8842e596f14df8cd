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

// baseSnapshot is the immutable compacted core the graph reads: the
// symmetric CSR plus the per-node degree vector and the graph-wide
// aggregates at fold time. Published behind Bipartite.base; never mutated
// after publication.
type baseSnapshot struct {
	adj         *sparse.CSR
	degrees     []float64 // weighted degree per node; len == CSR row count
	totalWeight float64   // Σ_ij a(i,j), each edge counted twice
	numEdges    int       // undirected edge count
}

// Bipartite is a user–item graph over a growable user/item universe. The
// bulk of the adjacency lives in an immutable compacted CSR (the base);
// live writes accumulate in a sparse per-node overlay until Compact (or
// the auto-compaction threshold) folds them into a new base, and nodes
// admitted live stay overlay-only (an empty row) until the next fold
// extends the CSR. All exported methods are safe for concurrent use.
type Bipartite struct {
	// uni is the node universe and base the compacted core, both
	// immutable once published and swapped behind atomic pointers, so
	// identity accessors (NumUsers, UserNode, IsItemNode, ...) never take
	// the graph lock and are safe to call from code already holding it in
	// either mode. An admission swaps uni and a fold swaps base, both with
	// mu held for writing.
	uni  atomic.Pointer[universe]
	base atomic.Pointer[baseSnapshot]

	// epoch counts accepted live writes (edge writes and node admissions)
	// since construction; it is atomic so cache lookups can read it
	// without taking the graph lock. A fold moves no epoch.
	epoch atomic.Uint64

	// mu guards the overlay and the drift counters: RLock for reads, Lock
	// for writes, admissions and folds.
	mu sync.RWMutex

	// overlay maps a node id to its full live row (base row merged with
	// every pending write touching it). Rows are copy-on-write: a write
	// always installs a freshly allocated row, so slices previously handed
	// to readers stay valid forever.
	overlay          map[int]*liveRow
	overlayWrites    int     // accepted writes since the last fold
	weightDelta      float64 // totalWeight drift vs the base
	edgeDelta        int     // numEdges drift vs the base
	compactThreshold int     // auto-fold when overlayWrites reaches this; <= 0 disables

	// journal is the bounded ring of recently-touched node ids behind
	// fine-grained cache invalidation (see journal.go). Appended to under
	// mu alongside the overlay; read lock-free by CheckFingerprint. A fold
	// records nothing — folding changes representation, not content.
	journal writeJournal
	// nodeGens maps a node id to the write generation of its most recent
	// accepted write. Guarded by mu; allocated lazily like the overlay.
	nodeGens map[int]uint64

	// popularity is the last ItemPopularity result, reused until the
	// write generation or the storage key moves.
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
// Duplicate pairs are summed. Weights that are not positive and finite
// are rejected, as a live write rejects them: the paper's graph has
// strictly positive edge weights.
func (b *Builder) AddRating(u, i int, w float64) error {
	if u < 0 || u >= b.numUsers {
		return fmt.Errorf("graph: user %d out of range [0,%d)", u, b.numUsers)
	}
	if i < 0 || i >= b.numItems {
		return fmt.Errorf("graph: item %d out of range [0,%d)", i, b.numItems)
	}
	if err := checkWeight(w); err != nil {
		return err
	}
	un, in := u, b.numUsers+i
	b.coo.Add(un, in, w)
	b.coo.Add(in, un, w)
	return nil
}

// Build freezes the builder into a graph (epoch 0, empty overlay).
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
	g := &Bipartite{}
	g.uni.Store(newBaseUniverse(b.numUsers, b.numItems))
	g.base.Store(base)
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
func (g *Bipartite) NumUsers() int { return g.uni.Load().numUsers }

// NumItems returns the current number of item nodes (live).
func (g *Bipartite) NumItems() int { return g.uni.Load().numItems }

// NumNodes returns the total node count (live).
func (g *Bipartite) NumNodes() int { return g.uni.Load().numNodes() }

// BaseNumUsers returns the user-universe size frozen at Build, before any
// live admissions — the universe that snapshot-trained models cover.
func (g *Bipartite) BaseNumUsers() int { return g.uni.Load().baseUsers }

// BaseNumItems returns the item-universe size frozen at Build.
func (g *Bipartite) BaseNumItems() int { return g.uni.Load().baseItems }

// NumEdges returns the number of undirected edges, including pending
// overlay writes.
func (g *Bipartite) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.base.Load().numEdges + g.edgeDelta
}

// UserNode maps a user index to its node id.
func (g *Bipartite) UserNode(u int) int {
	uni := g.uni.Load()
	if u < 0 || u >= uni.numUsers {
		panic(fmt.Sprintf("graph: user %d out of range", u))
	}
	return uni.userNode(u)
}

// ItemNode maps an item index to its node id.
func (g *Bipartite) ItemNode(i int) int {
	uni := g.uni.Load()
	if i < 0 || i >= uni.numItems {
		panic(fmt.Sprintf("graph: item %d out of range", i))
	}
	return uni.itemNode(i)
}

// IsUserNode reports whether node v is a user.
func (g *Bipartite) IsUserNode(v int) bool { return g.uni.Load().isUser(v) }

// IsItemNode reports whether node v is an item.
func (g *Bipartite) IsItemNode(v int) bool { return g.uni.Load().isItem(v) }

// UserIndex maps a user node id back to its user index.
func (g *Bipartite) UserIndex(v int) int {
	uni := g.uni.Load()
	if !uni.isUser(v) {
		panic(fmt.Sprintf("graph: node %d is not a user", v))
	}
	return uni.userIndex(v)
}

// ItemIndex maps an item node id back to its item index.
func (g *Bipartite) ItemIndex(v int) int {
	uni := g.uni.Load()
	if !uni.isItem(v) {
		panic(fmt.Sprintf("graph: node %d is not an item", v))
	}
	return uni.itemIndex(v)
}

// rowLocked returns the live row of node v: the overlay row when v has
// pending writes, the base CSR row otherwise; a node beyond the base
// without an overlay row reads as an empty row. Caller holds g.mu (either
// mode), which pins the base (a fold needs the write lock). The returned
// slices are immutable.
func (g *Bipartite) rowLocked(v int) (cols []int, weights []float64) {
	if r, ok := g.overlay[v]; ok {
		return r.cols, r.weights
	}
	if base := g.base.Load(); v < len(base.degrees) {
		return base.adj.Row(v)
	}
	return nil, nil
}

// degreeLocked returns the live weighted degree of v. Caller holds g.mu.
func (g *Bipartite) degreeLocked(v int) float64 {
	if r, ok := g.overlay[v]; ok {
		return r.degree
	}
	if base := g.base.Load(); v < len(base.degrees) {
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
	base := g.base.Load()
	n := g.uni.Load().numNodes()
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
	return g.base.Load().totalWeight + g.weightDelta
}

// Adjacency returns the compacted symmetric adjacency matrix (shared; do
// not modify). It is a snapshot: pending overlay writes are NOT included —
// call Compact first for a fully merged view, or use Neighbors for live
// per-node rows.
func (g *Bipartite) Adjacency() *sparse.CSR {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.base.Load().adj
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

// storageKey identifies the storage the graph reads its unwritten rows and
// its node identities from: the base snapshot and the universe. A fold
// swaps the first, an admission the second; a fold is not journaled and
// neither is ever set back. A held key keeps both alive, so two equal keys
// name the same storage.
type storageKey struct {
	base *baseSnapshot
	uni  *universe
}

// storageKey returns the graph's current storage key. Lock-free.
func (g *Bipartite) storageKey() storageKey {
	return storageKey{base: g.base.Load(), uni: g.uni.Load()}
}

// popularityMemo is one published ItemPopularity result together with the
// state it was counted from. Immutable once stored.
type popularityMemo struct {
	gen uint64     // the write generation
	key storageKey // what the unwritten rows count from and how long the vector is
	pop []int
}

// current reports whether nothing that can change the rater counts has
// happened since m was counted: every edge write and admission moves the
// write generation, and a fold or an admission moves the storage key.
// Neither is ever set back.
func (m *popularityMemo) current(g *Bipartite) bool {
	return m != nil && m.gen == g.journal.head.Load() && m.key == g.storageKey()
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
	m := &popularityMemo{gen: g.journal.head.Load(), key: g.storageKey()}
	base, uni := m.key.base, m.key.uni
	m.pop = make([]int, uni.numItems)
	for i := range m.pop {
		v := uni.itemNode(i)
		if r, ok := g.overlay[v]; ok {
			m.pop[i] = len(r.cols)
		} else if v < len(base.degrees) {
			m.pop[i] = base.adj.RowNNZ(v)
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
