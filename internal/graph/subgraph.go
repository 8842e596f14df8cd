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
// scratch storage and is only valid until the extractor's next Extract or
// ExtractByID call; the standalone ExtractSubgraph wrapper has no such
// restriction.
type Subgraph struct {
	parent *Bipartite
	// nodes maps local id -> original node id: every user in ascending
	// original id, then every item in ascending original id (ExtractByID);
	// Extract moves the distinct seeds in front, in seed order (see
	// Blocks). (NOT BFS discovery order: the BFS only decides membership.)
	nodes   []int
	adj     *sparse.CSR // local symmetric adjacency, blocks declared
	degrees []float64   // cached weighted degrees of the local adjacency
	items   int         // number of item nodes contained
	// whole reports that the BFS ended without reaching the item budget:
	// the members are every node reachable from the seeds.
	whole bool
	// members, when non-nil, is a bloom of exactly these members kept by
	// the extractor (a whole component it may reuse); Fingerprint copies it.
	members *Fingerprint

	// Reverse mapping: local[v] is the local id of original node v, valid
	// only when stamp[v] == epoch. Shared with (and stamped by) the
	// extractor that produced this subgraph. perm, when non-nil, renumbers
	// it: v's local id is perm[local[v]] (Extract's layout, derived from
	// the ExtractByID build).
	stamp []int
	local []int
	epoch int
	perm  []int
}

// localCSR is the storage of one local adjacency: local id -> original id,
// the CSR arrays and the cached row degrees.
type localCSR struct {
	nodes   []int
	rowPtr  []int
	colIdx  []int
	vals    []float64
	degrees []float64
}

// reset empties the CSR arrays for n rows, keeping their capacity.
func (c *localCSR) reset(n int) {
	if cap(c.rowPtr) < n+1 {
		c.rowPtr = make([]int, 0, 2*(n+1))
	}
	if cap(c.degrees) < n {
		c.degrees = make([]float64, 0, 2*n)
	}
	c.rowPtr = append(c.rowPtr[:0], 0)
	c.degrees = c.degrees[:0]
	c.colIdx = c.colIdx[:0]
	c.vals = c.vals[:0]
}

// adjacency wraps the CSR arrays as a matrix declaring blocks (a, b).
func (c *localCSR) adjacency(a, b int) *sparse.CSR {
	return sparse.NewCSRView(len(c.nodes), len(c.nodes), c.rowPtr, c.colIdx, c.vals).DeclareBlocks(a, b)
}

// SubgraphExtractor performs repeated BFS subgraph extractions against one
// parent graph while reusing all intermediate storage. The epoch-stamped
// visited/local arrays replace the per-query map[int]int node remapping, and
// the local CSR is built directly from the parent adjacency into flat
// scratch slices — no COO builder, no per-query map. Members are numbered
// users first, then items, each in ascending original id. A row holds
// columns of the other type only and the parent's rows are already sorted
// by original id, so a filtered row arrives in local column order: no row
// is ever sorted.
//
// Reuse. When the BFS ends under the item budget with every seed joined
// to the others, the members are one whole component, the same for every
// seed set inside it. The extractor keeps such a build (numbered by id)
// with a bloom of its members and the storage key it was read through,
// and the next extraction reuses it when every seed is a member, the
// budget still covers it, the storage key is unchanged and
// CheckFingerprint rules that no write since touched a member: no BFS, no
// CSR build, no lock. Anything else extracts afresh, which drops the kept
// build.
//
// An extractor is NOT safe for concurrent use; give each worker its own
// (see core.Engine, which pools them).
type SubgraphExtractor struct {
	g     *Bipartite
	epoch int
	stamp []int // stamp[v] == epoch ⇔ v is in the current subgraph
	local []int // local id of original node v when stamped; negative (a seed-set tag) until numbered

	// csr is what a fresh extraction writes; csr.nodes is the BFS discovery
	// list (doubling as the queue) while membership is decided, then local
	// id -> original id. sub is its Subgraph, the ExtractByID build.
	csr localCSR
	sub Subgraph
	// sets is the BFS's union-find over the distinct seeds (see extract).
	sets []int

	// kept reports that sub is an ExtractByID build of a whole component,
	// read through storage key keptKey; keptFP is a bloom of its members
	// stamped at a watermark through which no write touched them.
	kept    bool
	keptKey storageKey
	keptFP  Fingerprint

	// Extract's layout derived from sub: perm maps a local id of sub to a
	// prefixed one.
	perm        []int
	rowSeeds    []int
	prefixed    localCSR
	prefixedSub Subgraph
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

// ExtractByID grows a subgraph outward from the seed nodes by
// breadth-first search, following Algorithm 1: expansion stops once the
// subgraph contains more than maxItems item nodes (seeds are always kept,
// whatever their type). A non-positive maxItems means "no limit", yielding
// the whole reachable component.
//
// The BFS decides membership only. Local ids are then assigned as: every
// user in ascending original node id, then every item in ascending
// original node id, seeds included. On a graph without live-admitted
// nodes every user id is below every item id, so that is plain ascending
// id; admitted nodes interleave at the end of the id space and are pulled
// into their block. Both blocks are contiguous for any universe and, the
// graph being bipartite, no edge joins two members of one block: the
// boundaries (0, b) are declared on the adjacency handed out
// (Subgraph.Blocks, sparse.CSR.DeclareBlocks), which is what lets the
// fused sweeps advance one block at a time.
//
// The numbering depends on the member set alone, so a whole component is
// the same subgraph for every seed set inside it: the extractor keeps it
// and later calls return it without touching the graph while it is
// current (see SubgraphExtractor). The query engine marks each query's
// seeds on it as a mask. The returned Subgraph aliases the extractor's
// scratch and is invalidated by the extractor's next call.
func (e *SubgraphExtractor) ExtractByID(seeds []int, maxItems int) (*Subgraph, error) {
	if !e.reusable(seeds, maxItems) {
		if err := e.extract(seeds, maxItems); err != nil {
			return nil, err
		}
	}
	return &e.sub, nil
}

// Extract is ExtractByID renumbered seeds first: the distinct seeds take
// local ids 0..s-1 in seed order (duplicates skipped), then every other
// user, then every other item, each in ascending original id, with the
// blocks declared at (s, b). Degrees are copied from the ExtractByID
// build, so both layouts of one member set carry Float64bits-equal
// degrees. The seed prefix is the contract of the benchmark's stage
// replay, which reads its absorbing set as local ids 0..s-1; the query
// engine uses ExtractByID. The returned Subgraph aliases the extractor's
// scratch and is invalidated by the extractor's next call.
func (e *SubgraphExtractor) Extract(seeds []int, maxItems int) (*Subgraph, error) {
	if _, err := e.ExtractByID(seeds, maxItems); err != nil {
		return nil, err
	}
	return e.withSeedPrefix(seeds), nil
}

// reusable reports whether the kept build is exactly what a fresh BFS from
// seeds under maxItems would extract now: every seed is a member (the BFS
// would stay inside the component and reach all of it), the budget covers
// its items, no fold or admission swapped the storage key, and no
// write since keptFP's watermark touched a member. The watermark then
// advances to the journal head read before the check.
func (e *SubgraphExtractor) reusable(seeds []int, maxItems int) bool {
	if !e.kept || len(seeds) == 0 || (maxItems > 0 && e.sub.items > maxItems) || e.keptKey != e.g.storageKey() {
		return false
	}
	for _, s := range seeds {
		if _, ok := e.sub.LocalNode(s); !ok {
			return false
		}
	}
	head := e.g.WriteGen()
	if e.g.CheckFingerprint(&e.keptFP) != FingerprintFresh {
		return false
	}
	e.keptFP.Gen = head
	return true
}

// extract is a fresh extraction into csr and sub, kept when the members
// are one whole component.
func (e *SubgraphExtractor) extract(seeds []int, maxItems int) error {
	e.kept = false // the build below overwrites the kept one, even when it fails
	if len(seeds) == 0 {
		return fmt.Errorf("graph: ExtractSubgraph needs at least one seed")
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
	// One universe load serves the whole extraction: an admission needs
	// the write lock, and a universe never changes what it says about a
	// node it already has.
	key := g.storageKey()
	uni := key.uni
	n := uni.numNodes()
	e.sizeToGraph(n)
	e.epoch++
	nodes := e.csr.nodes[:0]
	items := 0
	// [lo, hi] brackets the original ids of the members. Until numbered, a
	// member's local entry is -1-k, k the set of the seed it was reached
	// from; sets holds one union-find parent per distinct seed, and joined
	// counts the unions an edge between two sets made.
	lo, hi := n, -1
	e.sets = e.sets[:0]
	for _, s := range seeds {
		if s < 0 || s >= n {
			return fmt.Errorf("graph: seed node %d out of range [0,%d)", s, n)
		}
		if e.stamp[s] == e.epoch {
			continue
		}
		e.stamp[s] = e.epoch
		e.local[s] = -1 - len(e.sets)
		e.sets = append(e.sets, len(e.sets))
		nodes = append(nodes, s)
		lo, hi = min(lo, s), max(hi, s)
		if uni.isItem(s) {
			items++
		}
	}
	numSeeds, joined := len(nodes), 0
	// BFS with an index-based head: nodes is simultaneously the discovery
	// list and the queue, so there is no O(n²) queue = queue[1:] re-slicing
	// and no separate queue allocation.
	for head := 0; head < len(nodes); head++ {
		if maxItems > 0 && items > maxItems {
			break
		}
		v := nodes[head]
		set := e.local[v]
		nbrs, _ := g.rowLocked(v)
		for _, w := range nbrs {
			if e.stamp[w] == e.epoch {
				if joined < numSeeds-1 && e.union(-1-set, -1-e.local[w]) {
					joined++
				}
				continue
			}
			if uni.isItem(w) {
				if maxItems > 0 && items > maxItems {
					continue
				}
				items++
			}
			e.stamp[w] = e.epoch
			e.local[w] = set
			nodes = append(nodes, w)
			lo, hi = min(lo, w), max(hi, w)
		}
	}
	e.csr.nodes = nodes
	whole := maxItems <= 0 || items <= maxItems
	// A whole build whose seeds all joined is one component: the subgraph
	// of every seed set inside it, numbered by id and kept.
	keep := whole && joined == numSeeds-1
	// Number the members with one scan of the stamped range and one cursor
	// per block — users from 0, items from where the users end —
	// overwriting the discovery order (no longer needed) in nodes.
	firstItem := len(nodes) - items
	nextUser, nextItem := 0, firstItem
	for v := lo; v <= hi; v++ {
		if e.stamp[v] != e.epoch {
			continue
		}
		if uni.isItem(v) {
			e.local[v] = nextItem
			nodes[nextItem] = v
			nextItem++
		} else {
			e.local[v] = nextUser
			nodes[nextUser] = v
			nextUser++
		}
	}
	e.buildLocalCSR()
	e.sub = Subgraph{
		parent:  g,
		nodes:   nodes,
		adj:     e.csr.adjacency(0, firstItem),
		degrees: e.csr.degrees,
		items:   items,
		whole:   whole,
		stamp:   e.stamp,
		local:   e.local,
		epoch:   e.epoch,
	}
	if keep {
		// Stamped under the read lock: the members are unchanged through
		// this watermark.
		e.keptFP.Reset(g.journal.head.Load())
		for _, v := range nodes {
			e.keptFP.AddNode(v)
		}
		e.kept, e.keptKey, e.sub.members = true, key, &e.keptFP
	}
	return nil
}

// union joins the union-find sets of seeds a and b, reporting whether they
// were apart.
func (e *SubgraphExtractor) union(a, b int) bool {
	for e.sets[a] != a {
		e.sets[a] = e.sets[e.sets[a]]
		a = e.sets[a]
	}
	for e.sets[b] != b {
		e.sets[b] = e.sets[e.sets[b]]
		b = e.sets[b]
	}
	e.sets[a] = b
	return a != b
}

// buildLocalCSR materializes the node-induced adjacency submatrix straight
// from the parent's live rows: one pass per row filtering to stamped
// neighbors. Parent rows are sorted by original id, a row's columns all
// lie in one block (the other type's) and local ids ascend with original
// id inside a block, so the columns arrive in local order and are appended
// in place. Degrees are the row sums in that order. Caller (extract) holds
// the parent graph's read lock.
func (e *SubgraphExtractor) buildLocalCSR() {
	c := &e.csr
	c.reset(len(c.nodes))
	for _, orig := range c.nodes {
		// rowLocked (not Adjacency().Row) so pending live writes in the
		// delta overlay are part of the extracted subgraph.
		cols, vals := e.g.rowLocked(orig)
		sum := 0.0
		for k, w := range cols {
			if e.stamp[w] != e.epoch || vals[k] == 0 {
				continue
			}
			sum += vals[k]
			c.colIdx = append(c.colIdx, e.local[w])
			c.vals = append(c.vals, vals[k])
		}
		c.rowPtr = append(c.rowPtr, len(c.colIdx))
		c.degrees = append(c.degrees, sum)
	}
}

// withSeedPrefix renumbers the ExtractByID build in sub (seeds members)
// into Extract's layout in the prefixed storage: the distinct seeds first
// in seed order, then sub's order — users, then items, ascending id — with
// the seeds left out. Each row is sub's row through perm with its seed
// columns moved in front; degrees are copied. Perm keeps the other columns
// in order, so a row without seed columns maps in place, and any other is
// split without a branch on whether a column is a seed; the seed rows say
// (the adjacency being symmetric) how many each row holds.
func (e *SubgraphExtractor) withSeedPrefix(seeds []int) *Subgraph {
	byID := &e.sub
	n, nnz := byID.Len(), byID.adj.NNZ()
	_, firstItem := byID.Blocks()
	if cap(e.perm) < n {
		e.perm = make([]int, 0, 2*n)
	}
	perm := e.perm[:n]
	for l := range perm {
		perm[l] = -1
	}
	p := &e.prefixed
	p.nodes = p.nodes[:0]
	seedUsers := 0
	for _, s := range seeds {
		if l := e.local[s]; perm[l] < 0 {
			perm[l] = len(p.nodes)
			p.nodes = append(p.nodes, s)
			if l < firstItem {
				seedUsers++
			}
		}
	}
	numSeeds := len(p.nodes)
	for l, v := range byID.nodes {
		if perm[l] < 0 {
			perm[l] = len(p.nodes)
			p.nodes = append(p.nodes, v)
		}
	}
	// rowSeeds[o]: the seed columns of byID's row o, counted from the seed rows.
	if cap(e.rowSeeds) < n {
		e.rowSeeds = make([]int, 0, 2*n)
	}
	rowSeeds := e.rowSeeds[:n]
	for o := range rowSeeds {
		rowSeeds[o] = 0
	}
	for _, s := range p.nodes[:numSeeds] {
		byIDCols, _ := byID.adj.Row(e.local[s])
		for _, c := range byIDCols {
			rowSeeds[c]++
		}
	}
	p.reset(n)
	if cap(p.colIdx) < nnz {
		p.colIdx, p.vals = make([]int, 0, 2*nnz), make([]float64, 0, 2*nnz)
	}
	cols, vals := p.colIdx[:nnz], p.vals[:nnz]
	pos := 0
	for _, v := range p.nodes {
		o := e.local[v]
		byIDCols, byIDVals := byID.adj.Row(o)
		if run := rowSeeds[o]; run == 0 {
			for k, c := range byIDCols {
				cols[pos+k] = perm[c]
			}
			pos += copy(vals[pos:], byIDVals)
		} else {
			// Store every entry once, at its place: seeds from the row's
			// start, the rest after them.
			front, back := pos, pos+run
			for k, c := range byIDCols {
				l := perm[c]
				seed := int(uint(l-numSeeds) >> 63) // 1 for a seed column
				at := back ^ ((front ^ back) & -seed)
				cols[at], vals[at] = l, byIDVals[k]
				front += seed
				back += 1 - seed
			}
			sortSeedRun(cols[pos:front], vals[pos:front])
			pos = back
		}
		p.rowPtr = append(p.rowPtr, pos)
		p.degrees = append(p.degrees, byID.degrees[o])
	}
	p.colIdx, p.vals = cols, vals
	e.perm = perm
	e.prefixedSub = Subgraph{
		parent:  e.g,
		nodes:   p.nodes,
		adj:     p.adjacency(numSeeds, numSeeds+firstItem-seedUsers),
		degrees: p.degrees,
		items:   byID.items,
		whole:   byID.whole,
		members: byID.members,
		stamp:   byID.stamp,
		local:   byID.local,
		epoch:   byID.epoch,
		perm:    perm,
	}
	return &e.prefixedSub
}

// sortSeedRun restores ascending column order in a row's seed run, moving
// vals along. The run arrives in ascending original id; its local ids
// follow seed order, so it is already sorted whenever the seeds were passed
// in ascending order and this is one comparison per entry. Arbitrary seed
// orders pay an insertion sort of the run.
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
// Under ExtractByID a is 0.
func (sg *Subgraph) Blocks() (a, b int) {
	a, b, _ = sg.adj.Blocks()
	return a, b
}

// Fingerprint sets *fp to a bloom of the subgraph's members stamped at
// watermark gen — the subgraph half of a cached result's fingerprint; gen
// must be read before every graph read the result depends on (the seed
// set, say). A kept whole component copies the bloom the extractor keeps;
// any other subgraph inserts its members.
func (sg *Subgraph) Fingerprint(gen uint64, fp *Fingerprint) {
	if sg.members != nil {
		*fp = *sg.members
		fp.Gen = gen
		return
	}
	fp.Reset(gen)
	for _, v := range sg.nodes {
		fp.AddNode(v)
	}
}

// NumItemNodes returns how many item nodes the subgraph contains.
func (sg *Subgraph) NumItemNodes() int { return sg.items }

// Adjacency returns the local symmetric adjacency matrix.
func (sg *Subgraph) Adjacency() *sparse.CSR { return sg.adj }

// Degrees returns the weighted degree vector of the local adjacency
// (aliases internal storage), each row summed in ascending original id.
// Cached at extraction time so chain construction does not recompute row
// sums per query.
func (sg *Subgraph) Degrees() []float64 { return sg.degrees }

// OriginalNode maps a local id back to the parent graph's node id.
func (sg *Subgraph) OriginalNode(local int) int { return sg.nodes[local] }

// LocalNode maps a parent node id to the local id, reporting presence.
func (sg *Subgraph) LocalNode(orig int) (int, bool) {
	if orig < 0 || orig >= len(sg.stamp) || sg.stamp[orig] != sg.epoch {
		return 0, false
	}
	if sg.perm != nil {
		return sg.perm[sg.local[orig]], true
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
