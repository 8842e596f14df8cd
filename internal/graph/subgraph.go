package graph

import (
	"fmt"

	"longtailrec/internal/sparse"
)

// Subgraph is a node-induced local neighborhood of a Bipartite graph,
// produced by the breadth-first expansion of Algorithm 1 step 2. It keeps
// its own compact node numbering (0..len(Nodes)-1) plus the mapping back to
// the parent graph.
//
// Edges between two subgraph nodes are retained with their original
// weights; edges leaving the subgraph are dropped, so the local random walk
// is the paper's truncated approximation of the global one.
//
// A Subgraph returned by SubgraphExtractor.Extract aliases the extractor's
// scratch storage and is only valid until the extractor's next Extract
// call; the standalone ExtractSubgraph wrapper has no such restriction.
type Subgraph struct {
	parent *Bipartite
	// nodes maps local id -> original node id: the distinct seeds in seed
	// order, then every other user in ascending original id, then every
	// other item in ascending original id (see Blocks). (NOT BFS discovery
	// order: the BFS only decides membership.)
	nodes   []int
	adj     *sparse.CSR // local symmetric adjacency, blocks declared
	degrees []float64   // cached weighted degrees of the local adjacency
	items   int         // number of item nodes contained

	// Reverse mapping: local[v] is the local id of original node v, valid
	// only when stamp[v] == epoch. Shared with (and stamped by) the
	// extractor that produced this subgraph.
	stamp []int
	local []int
	epoch int

	// writeGen is the parent view's write-generation watermark at
	// extraction time (captured under the extraction read lock, so it
	// covers exactly the graph state the subgraph snapshotted) — the
	// watermark half of a cache fingerprint.
	writeGen uint64
}

// SubgraphExtractor performs repeated BFS subgraph extractions against one
// parent graph while reusing all intermediate storage. The epoch-stamped
// visited/local arrays replace the per-query map[int]int node remapping, and
// the local CSR is built directly from the parent adjacency into flat
// scratch slices — no COO builder, no per-query map. Non-seed members are
// numbered users first, then items, each in ascending original id. A row
// holds columns of the other type only and the parent's rows are already
// sorted by original id, so a filtered row arrives as two ascending runs
// (seed columns, other columns) and one stable partition puts it in local
// column order: no row is ever comparison-sorted.
//
// An extractor is NOT safe for concurrent use; give each worker its own
// (see core.Engine, which pools them).
type SubgraphExtractor struct {
	g     *Bipartite
	epoch int
	stamp []int // stamp[v] == epoch ⇔ v is in the current subgraph
	local []int // local id of original node v when stamped; -1 until numbered

	// nodes is the BFS discovery list (doubling as the queue) while
	// membership is decided, then local id -> original id.
	nodes   []int
	rowPtr  []int
	colIdx  []int
	vals    []float64
	degrees []float64
	// seedCols/seedVals park the seed-column run of the row being built
	// until the row's other columns are known (see buildLocalCSR).
	seedCols []int
	seedVals []float64
	sub      Subgraph
}

// NewSubgraphExtractor creates an extractor bound to g. Scratch arrays grow
// lazily to the sizes the queries actually need and are then reused; the
// node-indexed stamp/local arrays are re-sized per query off the graph's
// live node count, so an extractor keeps working while the universe grows.
func NewSubgraphExtractor(g *Bipartite) *SubgraphExtractor {
	e := &SubgraphExtractor{g: g}
	e.sizeToGraph(g.NumNodes())
	return e
}

// sizeToGraph ensures the node-indexed reverse-mapping arrays cover n
// nodes. Growth allocates fresh zeroed arrays (with headroom, so a
// steadily growing universe does not reallocate per query) and restarts
// the stamp epoch; Subgraphs handed out earlier keep the old arrays and
// epoch, so their reverse lookups stay consistent.
func (e *SubgraphExtractor) sizeToGraph(n int) {
	if n <= len(e.stamp) {
		return
	}
	e.stamp = make([]int, n+n/8)
	e.local = make([]int, n+n/8)
	e.epoch = 0
}

// Graph returns the parent graph the extractor is bound to.
func (e *SubgraphExtractor) Graph() *Bipartite { return e.g }

// Extract grows a subgraph outward from the seed nodes by breadth-first
// search, following Algorithm 1: expansion stops once the subgraph contains
// more than maxItems item nodes (seeds are always kept, whatever their
// type). A non-positive maxItems means "no limit", yielding the whole
// reachable component.
//
// The BFS decides membership only. Local ids are then assigned as: the
// distinct seeds 0..s-1 in seed order (duplicates skipped), then every
// other user in ascending original node id, then every other item in
// ascending original node id. On a graph without live-admitted nodes every
// user id is below every item id, so that is plain ascending id; admitted
// nodes interleave at the end of the id space and are pulled into their
// block. The two non-seed blocks are contiguous for any universe and, the
// graph being bipartite, no edge joins two members of one block: the
// boundaries are declared on the adjacency handed out (Subgraph.Blocks,
// sparse.CSR.DeclareBlocks), which is what lets the fused sweeps advance
// one block at a time. The returned Subgraph aliases the extractor's
// scratch and is invalidated by the next Extract call on the same
// extractor.
//
//ltr:allocfree
func (e *SubgraphExtractor) Extract(seeds []int, maxItems int) (*Subgraph, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("graph: ExtractSubgraph needs at least one seed")
	}
	g := e.g
	// One read lock spans the whole extraction (seed validation, BFS and
	// the local CSR build): the subgraph is an atomic snapshot of the live
	// graph — a concurrent write cannot tear it into an asymmetric
	// adjacency, and the node count read below cannot be outgrown while
	// rows are traversed — and the hot loop pays a single lock acquisition
	// instead of one per node. Writers block for the duration of one
	// extraction, which is the documented cost model (reads dominate).
	g.mu.RLock()
	defer g.mu.RUnlock()
	// One universe load serves the whole extraction. A sibling view may
	// admit nodes meanwhile, but this view's rows cannot mention them while
	// the read lock is held, and a universe never changes what it says
	// about a node it already has.
	uni := g.shared.uni.Load()
	n := uni.numNodes()
	e.sizeToGraph(n)
	e.epoch++
	e.nodes = e.nodes[:0]
	items := 0
	for _, s := range seeds {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("graph: seed node %d out of range [0,%d)", s, n)
		}
		if e.stamp[s] == e.epoch {
			continue
		}
		e.stamp[s] = e.epoch
		e.local[s] = len(e.nodes)
		e.nodes = append(e.nodes, s)
		if uni.isItem(s) {
			items++
		}
	}
	numSeeds, seedItems := len(e.nodes), items
	// BFS with an index-based head: e.nodes is simultaneously the discovery
	// list and the queue, so there is no O(n²) queue = queue[1:] re-slicing
	// and no separate queue allocation. [lo, hi] brackets the original ids
	// of the non-seed members for the numbering scan below.
	lo, hi := n, -1
	for head := 0; head < len(e.nodes); head++ {
		if maxItems > 0 && items > maxItems {
			break
		}
		nbrs, _ := g.rowLocked(e.nodes[head])
		for _, w := range nbrs {
			if e.stamp[w] == e.epoch {
				continue
			}
			if uni.isItem(w) {
				if maxItems > 0 && items > maxItems {
					continue
				}
				items++
			}
			e.stamp[w] = e.epoch
			e.local[w] = -1
			e.nodes = append(e.nodes, w)
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
	}
	// Number the non-seed members with one scan of the stamped range and
	// one cursor per block — users from numSeeds, items from where the users
	// end — overwriting the discovery order (no longer needed) in e.nodes.
	// Seeds inside the range keep their ids (>= 0).
	firstItem := len(e.nodes) - (items - seedItems)
	nextUser, nextItem := numSeeds, firstItem
	for v := lo; v <= hi; v++ {
		if e.stamp[v] != e.epoch || e.local[v] >= 0 {
			continue
		}
		if uni.isItem(v) {
			e.local[v] = nextItem
			e.nodes[nextItem] = v
			nextItem++
		} else {
			e.local[v] = nextUser
			e.nodes[nextUser] = v
			nextUser++
		}
	}
	e.buildLocalCSR(numSeeds)
	e.sub = Subgraph{
		parent:   g,
		nodes:    e.nodes,
		adj:      sparse.NewCSRView(len(e.nodes), len(e.nodes), e.rowPtr, e.colIdx, e.vals).DeclareBlocks(numSeeds, firstItem),
		degrees:  e.degrees,
		items:    items,
		stamp:    e.stamp,
		local:    e.local,
		epoch:    e.epoch,
		writeGen: g.journal.head.Load(),
	}
	return &e.sub, nil
}

// buildLocalCSR materializes the node-induced adjacency submatrix straight
// from the parent's live rows: one pass per row filtering to stamped
// neighbors. Parent rows are sorted by original id, a row's non-seed
// columns all lie in one block (the other type's) and local ids ascend
// with original id inside a block, so those columns arrive in local order
// and are appended in place; its seed columns (local ids below numSeeds,
// which follow seed order instead) are parked aside and moved in front
// once the row is complete. Degrees are the local row sums, added in local
// column order. Caller (Extract) holds the parent graph's read lock.
//
//ltr:allocfree
func (e *SubgraphExtractor) buildLocalCSR(numSeeds int) {
	nl := len(e.nodes)
	if cap(e.rowPtr) < nl+1 {
		//ltr:ignore allocfree amortized growth: re-making doubles capacity, steady state never enters this branch
		e.rowPtr = make([]int, 0, 2*(nl+1))
	}
	if cap(e.degrees) < nl {
		//ltr:ignore allocfree amortized growth: re-making doubles capacity, steady state never enters this branch
		e.degrees = make([]float64, 0, 2*nl)
	}
	if cap(e.seedCols) < numSeeds {
		// A row holds each seed at most once, so its seed run fits.
		//ltr:ignore allocfree amortized growth: re-making doubles capacity, steady state never enters this branch
		e.seedCols = make([]int, 0, 2*numSeeds)
		//ltr:ignore allocfree amortized growth: re-making doubles capacity, steady state never enters this branch
		e.seedVals = make([]float64, 0, 2*numSeeds)
	}
	e.rowPtr = e.rowPtr[:0]
	e.degrees = e.degrees[:0]
	e.colIdx = e.colIdx[:0]
	e.vals = e.vals[:0]
	e.rowPtr = append(e.rowPtr, 0)
	for _, orig := range e.nodes {
		// rowLocked (not Adjacency().Row) so pending live writes in the
		// delta overlay are part of the extracted subgraph.
		cols, vals := e.g.rowLocked(orig)
		start := len(e.colIdx)
		e.seedCols, e.seedVals = e.seedCols[:0], e.seedVals[:0]
		sum := 0.0
		for k, w := range cols {
			if e.stamp[w] != e.epoch || vals[k] == 0 {
				continue
			}
			if l := e.local[w]; l < numSeeds {
				e.seedCols = append(e.seedCols, l)
				e.seedVals = append(e.seedVals, vals[k])
			} else {
				e.colIdx = append(e.colIdx, l)
				e.vals = append(e.vals, vals[k])
				sum += vals[k]
			}
		}
		if c := len(e.seedCols); c > 0 {
			sortSeedRun(e.seedCols, e.seedVals)
			// Grow the row by c, shift its non-seed columns right (copy is
			// overlap-safe) and drop the seed run in front.
			e.colIdx = append(e.colIdx, e.seedCols...)
			e.vals = append(e.vals, e.seedVals...)
			rowCols, rowVals := e.colIdx[start:], e.vals[start:]
			copy(rowCols[c:], rowCols)
			copy(rowVals[c:], rowVals)
			copy(rowCols, e.seedCols)
			copy(rowVals, e.seedVals)
			// Re-add in local column order: Degrees()[l] stays bit-equal
			// to the row sum of the adjacency handed out.
			sum = 0
			for _, x := range rowVals {
				sum += x
			}
		}
		e.rowPtr = append(e.rowPtr, len(e.colIdx))
		e.degrees = append(e.degrees, sum)
	}
}

// sortSeedRun restores ascending column order in a row's seed run, moving
// vals along. The run arrives in ascending original id; its local ids
// follow seed order, so it is already sorted whenever the seeds were passed
// in ascending order (the engine always does) and this is one comparison
// per entry. Arbitrary seed orders pay an insertion sort of the run.
//
//ltr:allocfree
func sortSeedRun(cols []int, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}

// ExtractSubgraph grows a subgraph outward from the seed nodes by
// breadth-first search (Algorithm 1). It is a thin wrapper over
// SubgraphExtractor for one-shot callers; the returned Subgraph owns its
// storage (the throwaway extractor is never reused, so nothing aliases).
// Note that the Subgraph keeps the extractor's two NumNodes-sized reverse-
// mapping arrays alive for its lifetime — callers that extract and retain
// many Subgraphs, or that extract per query, should hold (and pool) a
// SubgraphExtractor instead.
func ExtractSubgraph(g *Bipartite, seeds []int, maxItems int) (*Subgraph, error) {
	return NewSubgraphExtractor(g).Extract(seeds, maxItems)
}

// Len returns the number of nodes in the subgraph.
func (sg *Subgraph) Len() int { return len(sg.nodes) }

// Blocks returns the boundaries of the local numbering: local ids [0,a) are
// the distinct seeds (users or items), [a,b) every other user and
// [b,Len()) every other item. The same pair is declared on Adjacency().
func (sg *Subgraph) Blocks() (a, b int) {
	a, b, _ = sg.adj.Blocks()
	return a, b
}

// WriteGen returns the parent view's write-generation watermark the
// subgraph was extracted at (see Bipartite.WriteGen / CheckFingerprint).
// It covers the extraction only: a result that also depends on a graph
// read made before Extract (the seed set, say) must be fingerprinted with
// a watermark read before that earlier read.
func (sg *Subgraph) WriteGen() uint64 { return sg.writeGen }

// NumItemNodes returns how many item nodes the subgraph contains.
func (sg *Subgraph) NumItemNodes() int { return sg.items }

// Adjacency returns the local symmetric adjacency matrix.
func (sg *Subgraph) Adjacency() *sparse.CSR { return sg.adj }

// Degrees returns the weighted degree vector of the local adjacency
// (aliases internal storage). Cached at extraction time so chain
// construction does not recompute row sums per query.
func (sg *Subgraph) Degrees() []float64 { return sg.degrees }

// OriginalNode maps a local id back to the parent graph's node id.
func (sg *Subgraph) OriginalNode(local int) int { return sg.nodes[local] }

// LocalNode maps a parent node id to the local id, reporting presence.
func (sg *Subgraph) LocalNode(orig int) (int, bool) {
	if orig < 0 || orig >= len(sg.stamp) || sg.stamp[orig] != sg.epoch {
		return 0, false
	}
	return sg.local[orig], true
}

// IsItemLocal reports whether local node l is an item in the parent graph.
func (sg *Subgraph) IsItemLocal(l int) bool {
	return sg.parent.IsItemNode(sg.nodes[l])
}

// IsUserLocal reports whether local node l is a user in the parent graph.
func (sg *Subgraph) IsUserLocal(l int) bool {
	return sg.parent.IsUserNode(sg.nodes[l])
}

// ItemLocals returns the local ids of all item nodes.
func (sg *Subgraph) ItemLocals() []int {
	out := make([]int, 0, sg.items)
	for l := range sg.nodes {
		if sg.IsItemLocal(l) {
			out = append(out, l)
		}
	}
	return out
}
