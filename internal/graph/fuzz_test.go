// Go native fuzz targets hardening the two data structures PR 2 makes
// load-bearing: the epoch-stamped subgraph extractor (zero-allocation BFS
// + direct local CSR) and the delta-overlay live graph. Both are checked
// against deliberately naive map-based reference implementations — the
// kind of code the optimized versions replaced.
//
// `go test` runs the seed corpus; `go test -fuzz FuzzSubgraphExtract
// ./internal/graph` explores further.

package graph

import (
	"math"
	"sort"
	"testing"
)

// byteDriver doles out pseudo-random decisions from fuzz input, wrapping
// around so every input length yields a full scenario.
type byteDriver struct {
	data []byte
	pos  int
}

func (d *byteDriver) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[d.pos%len(d.data)]
	d.pos++
	return b
}

func (d *byteDriver) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return (int(d.next())<<8 | int(d.next())) % n
}

// buildFuzzGraph derives a small graph (and its rating list) from fuzz
// bytes: universe sizes 1..12 users × 1..16 items, up to 96 distinct
// edges with weights in (0, 5.12].
func buildFuzzGraph(d *byteDriver) (*Bipartite, int, int) {
	nu := 1 + d.intn(12)
	ni := 1 + d.intn(16)
	b := NewBuilder(nu, ni)
	seen := map[[2]int]bool{}
	for e := 0; e < d.intn(96); e++ {
		u, i := d.intn(nu), d.intn(ni)
		if seen[[2]int{u, i}] {
			continue
		}
		seen[[2]int{u, i}] = true
		w := float64(1+d.intn(512)) / 100
		if err := b.AddRating(u, i, w); err != nil {
			panic(err) // inputs constructed in range
		}
	}
	return b.Build(), nu, ni
}

// refSubgraph is the naive map-based reference of Algorithm 1 step 2: the
// same BFS policy as SubgraphExtractor.Extract decides membership in
// discovery order, then the stated numbering rule is applied with a plain
// sort — seeds first in seed order (Extract only), then every other user
// in ascending original id, then every other item in ascending original id
// — and the adjacency is a map of maps.
type refSubgraph struct {
	nodes []int
	local map[int]int
	adj   map[int]map[int]float64 // local -> local -> weight
	items int
	// Block boundaries: locals [0,numSeeds) are the seeds (none without
	// the prefix), [numSeeds, firstItem) the other users,
	// [firstItem,len(nodes)) the other items.
	numSeeds, firstItem int
	// hitBudget: the BFS reached more than maxItems items.
	hitBudget bool
}

func extractRef(g *Bipartite, seeds []int, maxItems int, seedPrefix bool) *refSubgraph {
	r := &refSubgraph{local: map[int]int{}, adj: map[int]map[int]float64{}}
	add := func(v int) {
		r.local[v] = len(r.nodes)
		r.nodes = append(r.nodes, v)
		if g.IsItemNode(v) {
			r.items++
		}
	}
	for _, s := range seeds {
		if _, ok := r.local[s]; ok {
			continue
		}
		add(s)
	}
	numSeeds := len(r.nodes)
	for head := 0; head < len(r.nodes); head++ {
		if maxItems > 0 && r.items > maxItems {
			break
		}
		nbrs, _ := g.Neighbors(r.nodes[head])
		for _, w := range nbrs {
			if _, ok := r.local[w]; ok {
				continue
			}
			if maxItems > 0 && r.items > maxItems && g.IsItemNode(w) {
				continue
			}
			add(w)
		}
	}
	r.hitBudget = maxItems > 0 && r.items > maxItems
	if !seedPrefix {
		numSeeds = 0
	}
	rest := r.nodes[numSeeds:]
	sort.Slice(rest, func(a, b int) bool {
		if ia, ib := g.IsItemNode(rest[a]), g.IsItemNode(rest[b]); ia != ib {
			return ib
		}
		return rest[a] < rest[b]
	})
	r.numSeeds, r.firstItem = numSeeds, len(r.nodes)
	for l, v := range r.nodes {
		r.local[v] = l
		if l >= numSeeds && l < r.firstItem && g.IsItemNode(v) {
			r.firstItem = l
		}
	}
	for _, orig := range r.nodes {
		lv := r.local[orig]
		nbrs, ws := g.Neighbors(orig)
		for k, w := range nbrs {
			if lw, ok := r.local[w]; ok && ws[k] != 0 {
				if r.adj[lv] == nil {
					r.adj[lv] = map[int]float64{}
				}
				r.adj[lv][lw] = ws[k]
			}
		}
	}
	return r
}

// requireMatchesRef cross-checks one Extract against the naive reference:
// node set and numbering, item count, the declared blocks, the whole flag,
// the reverse mapping over the whole universe, every weight, strictly
// increasing columns, no entry joining two non-seed rows of one block,
// symmetry of the local adjacency and the cached degrees — each the row
// sum added in ascending original id.
func requireMatchesRef(t *testing.T, g *Bipartite, sg *Subgraph, seeds []int, maxItems int) {
	t.Helper()
	requireMatchesLayout(t, g, sg, seeds, maxItems, true)
}

// requireMatchesRefByID is requireMatchesRef for ExtractByID.
func requireMatchesRefByID(t *testing.T, g *Bipartite, sg *Subgraph, seeds []int, maxItems int) {
	t.Helper()
	requireMatchesLayout(t, g, sg, seeds, maxItems, false)
}

func requireMatchesLayout(t *testing.T, g *Bipartite, sg *Subgraph, seeds []int, maxItems int, seedPrefix bool) {
	t.Helper()
	ref := extractRef(g, seeds, maxItems, seedPrefix)
	if sg.whole == ref.hitBudget {
		t.Fatalf("whole = %v, but the reference BFS hit the budget: %v (seeds %v max %d)", sg.whole, ref.hitBudget, seeds, maxItems)
	}
	if sg.Len() != len(ref.nodes) {
		t.Fatalf("%d nodes, ref %d (seeds %v max %d)", sg.Len(), len(ref.nodes), seeds, maxItems)
	}
	if sg.NumItemNodes() != ref.items {
		t.Fatalf("%d item nodes, ref %d", sg.NumItemNodes(), ref.items)
	}
	for l := 0; l < sg.Len(); l++ {
		if sg.OriginalNode(l) != ref.nodes[l] {
			t.Fatalf("node order diverges at %d: %d vs %d", l, sg.OriginalNode(l), ref.nodes[l])
		}
	}
	if a, b := sg.Blocks(); a != ref.numSeeds || b != ref.firstItem {
		t.Fatalf("blocks (%d,%d), ref (%d,%d)", a, b, ref.numSeeds, ref.firstItem)
	}
	if a, b, ok := sg.Adjacency().Blocks(); !ok || a != ref.numSeeds || b != ref.firstItem {
		t.Fatalf("adjacency declares blocks (%d,%d,%v), ref (%d,%d)", a, b, ok, ref.numSeeds, ref.firstItem)
	}
	for v := 0; v < g.NumNodes(); v++ {
		gotL, gotOK := sg.LocalNode(v)
		refL, refOK := ref.local[v]
		if gotOK != refOK || (gotOK && gotL != refL) {
			t.Fatalf("LocalNode(%d) = (%d,%v), ref (%d,%v)", v, gotL, gotOK, refL, refOK)
		}
	}
	adj := sg.Adjacency()
	for l := 0; l < sg.Len(); l++ {
		cols, vals := adj.Row(l)
		if len(cols) != len(ref.adj[l]) {
			t.Fatalf("row %d has %d entries, ref %d", l, len(cols), len(ref.adj[l]))
		}
		for k, c := range cols {
			if k > 0 && cols[k-1] >= c {
				t.Fatalf("row %d columns not strictly increasing: %v", l, cols)
			}
			if l >= ref.numSeeds && c >= ref.numSeeds && (l < ref.firstItem) == (c < ref.firstItem) {
				t.Fatalf("entry (%d,%d) joins two rows of one block (%d,%d)", l, c, ref.numSeeds, ref.firstItem)
			}
			if rv, ok := ref.adj[l][c]; !ok || rv != vals[k] {
				t.Fatalf("adj[%d][%d] = %v, ref %v (present %v)", l, c, vals[k], rv, ok)
			}
			if back := adj.At(c, l); math.Float64bits(back) != math.Float64bits(vals[k]) {
				t.Fatalf("adj[%d][%d] = %v but adj[%d][%d] = %v", l, c, vals[k], c, l, back)
			}
		}
		if sum := parentOrderSum(sg, l); math.Float64bits(sg.Degrees()[l]) != math.Float64bits(sum) {
			t.Fatalf("cached degree[%d] = %v, row sum in parent-row order %v", l, sg.Degrees()[l], sum)
		}
	}
}

// parentOrderSum adds local row l's weights in ascending original id of
// their columns — the order the parent row holds them in.
func parentOrderSum(sg *Subgraph, l int) float64 {
	cols, vals := sg.Adjacency().Row(l)
	order := make([]int, len(cols))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool { return sg.OriginalNode(cols[order[a]]) < sg.OriginalNode(cols[order[b]]) })
	sum := 0.0
	for _, k := range order {
		sum += vals[k]
	}
	return sum
}

// origSubgraph is an extraction keyed by original node id — what two
// layouts of one member set must agree on.
type origSubgraph struct {
	degree map[int]float64    // member -> cached degree
	edges  map[[2]int]float64 // (row, column) -> weight
	whole  bool
}

func byOriginalID(sg *Subgraph) origSubgraph {
	o := origSubgraph{degree: map[int]float64{}, edges: map[[2]int]float64{}, whole: sg.whole}
	for l := 0; l < sg.Len(); l++ {
		v := sg.OriginalNode(l)
		o.degree[v] = sg.Degrees()[l]
		cols, vals := sg.Adjacency().Row(l)
		for k, c := range cols {
			o.edges[[2]int{v, sg.OriginalNode(c)}] = vals[k]
		}
	}
	return o
}

// requireSameByOriginalID asserts two layouts hold the same members, the
// same edges with the same weights and Float64bits-equal degrees.
func requireSameByOriginalID(t *testing.T, want, got origSubgraph) {
	t.Helper()
	if len(got.degree) != len(want.degree) || len(got.edges) != len(want.edges) || got.whole != want.whole {
		t.Fatalf("%d members / %d entries / whole %v, want %d / %d / %v", len(got.degree), len(got.edges), got.whole, len(want.degree), len(want.edges), want.whole)
	}
	for v, d := range want.degree {
		if gd, ok := got.degree[v]; !ok || math.Float64bits(gd) != math.Float64bits(d) {
			t.Fatalf("node %d: degree %v (member %v), want %v", v, gd, ok, d)
		}
	}
	for e, w := range want.edges {
		if gw, ok := got.edges[e]; !ok || gw != w {
			t.Fatalf("edge %v: weight %v (present %v), want %v", e, gw, ok, w)
		}
	}
}

// FuzzSubgraphExtract cross-checks the pooled epoch-stamped extractor's
// two builds against the naive reference on fuzz-derived graphs, seed sets
// and item budgets (see requireMatchesRef for what is compared), and
// against each other by original id: the same members, the same edges,
// Float64bits-equal degrees and the same whole flag, which is set exactly
// when the reference BFS never reached the budget. Live writes land
// between the extractions of ONE extractor — re-rates, new edges inside a
// component, edges joining two components, admissions and folds — so its
// kept builds are reused, refreshed from the journal or rebuilt, and each
// answer must still equal a fresh BFS.
func FuzzSubgraphExtract(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{255, 0, 128, 7, 9, 200, 13, 42, 42, 42, 17, 99, 3, 1})
	f.Add([]byte("the quick brown fox jumps over the lazy long tail"))
	f.Add([]byte("kept components are refreshed from the journal between reads"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &byteDriver{data: data}
		g, _, _ := buildFuzzGraph(d)
		ext := NewSubgraphExtractor(g)
		for q := 0; q < 8; q++ {
			if q > 0 {
				fuzzWrite(t, d, g)
			}
			numSeeds := 1 + d.intn(4)
			seeds := make([]int, numSeeds)
			for k := range seeds {
				seeds[k] = d.intn(g.NumNodes())
			}
			maxItems := d.intn(g.NumItems() + 2) // 0 = unlimited
			sg, err := ext.Extract(seeds, maxItems)
			if err != nil {
				t.Fatalf("Extract(%v, %d): %v", seeds, maxItems, err)
			}
			requireMatchesRef(t, g, sg, seeds, maxItems)
			prefixed := byOriginalID(sg)
			if sg, err = ext.ExtractByID(seeds, maxItems); err != nil {
				t.Fatalf("ExtractByID(%v, %d): %v", seeds, maxItems, err)
			}
			requireMatchesRefByID(t, g, sg, seeds, maxItems)
			requireSameByOriginalID(t, prefixed, byOriginalID(sg))
		}
	})
}

// fuzzWrite applies one fuzz-chosen live write to g: a re-rate, a new
// edge inside a component, an edge joining two components, an admission
// through UpsertRatingAutoGrow or a fold. A write the graph offers no
// pair for (no rated edge, no unrated pair of the wanted kind) is
// skipped.
func fuzzWrite(t *testing.T, d *byteDriver, g *Bipartite) {
	t.Helper()
	nu, ni := g.NumUsers(), g.NumItems()
	u, w := d.intn(nu), float64(1+d.intn(512))/100
	var err error
	switch kind := d.next() % 5; kind {
	case 0: // re-rate
		items, _ := g.UserItems(u)
		if len(items) > 0 {
			err = g.UpdateRating(u, items[d.intn(len(items))], w)
		}
	case 1, 2: // a new edge inside u's component, or joining another
		labels, _ := g.ConnectedComponents()
		var cands []int
		for i := 0; i < ni; i++ {
			same := labels[g.ItemNode(i)] == labels[g.UserNode(u)]
			if same == (kind == 1) && g.Weight(g.UserNode(u), g.ItemNode(i)) == 0 {
				cands = append(cands, i)
			}
		}
		if len(cands) > 0 {
			err = g.AddRating(u, cands[d.intn(len(cands))], w)
		}
	case 3: // admit a new user or a new item with its first rating
		if d.next()%2 == 0 {
			_, err = g.UpsertRatingAutoGrow(nu, d.intn(ni), w)
		} else {
			_, err = g.UpsertRatingAutoGrow(u, ni, w)
		}
	default:
		g.Compact()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// refLiveGraph is the naive reference for the delta-overlay write path: a
// plain edge map with brute-force recomputation of every derived quantity.
type refLiveGraph struct {
	nu, ni int
	edges  map[[2]int]float64
}

func (r *refLiveGraph) degree(v int) float64 {
	// An edge (u, i) touches node u and node nu+i; the ranges are disjoint.
	d := 0.0
	for e, w := range r.edges {
		if e[0] == v || r.nu+e[1] == v {
			d += w
		}
	}
	return d
}

func (r *refLiveGraph) totalWeight() float64 {
	t := 0.0
	for _, w := range r.edges {
		t += 2 * w
	}
	return t
}

// FuzzBuilderAddRating drives a fuzz-derived op sequence — batch builder
// adds, then live AddRating/UpdateRating/UpsertRating with interleaved
// compactions — and cross-checks the delta-overlay graph against the edge
// map reference, plus (after a final Compact) against a batch-built graph
// of the same final edge set.
func FuzzBuilderAddRating(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 1, 4, 200, 3, 5, 77, 12, 0, 255})
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte("delta overlays merge into the CSR on a threshold"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &byteDriver{data: data}
		nu := 1 + d.intn(8)
		ni := 1 + d.intn(10)
		ref := &refLiveGraph{nu: nu, ni: ni, edges: map[[2]int]float64{}}

		// Batch phase: the frozen seed graph.
		b := NewBuilder(nu, ni)
		for e := 0; e < d.intn(30); e++ {
			u, i := d.intn(nu), d.intn(ni)
			if _, dup := ref.edges[[2]int{u, i}]; dup {
				continue
			}
			w := float64(1+d.intn(500)) / 100
			if err := b.AddRating(u, i, w); err != nil {
				t.Fatal(err)
			}
			ref.edges[[2]int{u, i}] = w
		}
		g := b.Build()
		if th := d.intn(12); th > 0 {
			g.SetCompactThreshold(th)
		}

		// Live phase.
		wantEpoch := uint64(0)
		for op := 0; op < d.intn(60); op++ {
			u, i := d.intn(nu), d.intn(ni)
			key := [2]int{u, i}
			w := float64(1+d.intn(500)) / 100
			_, exists := ref.edges[key]
			switch d.next() % 4 {
			case 0:
				err := g.AddRating(u, i, w)
				if exists {
					if err == nil {
						t.Fatalf("AddRating(%d,%d) on existing edge succeeded", u, i)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				ref.edges[key] = w
				wantEpoch++
			case 1:
				err := g.UpdateRating(u, i, w)
				if !exists {
					if err == nil {
						t.Fatalf("UpdateRating(%d,%d) on missing edge succeeded", u, i)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if ref.edges[key] != w {
					wantEpoch++
				}
				ref.edges[key] = w
			case 2:
				added, err := g.UpsertRating(u, i, w)
				if err != nil {
					t.Fatal(err)
				}
				if added == exists {
					t.Fatalf("UpsertRating(%d,%d) added=%v but exists=%v", u, i, added, exists)
				}
				if !exists || ref.edges[key] != w {
					wantEpoch++
				}
				ref.edges[key] = w
			default:
				g.Compact()
			}
			if g.Epoch() != wantEpoch {
				t.Fatalf("op %d: epoch %d, want %d", op, g.Epoch(), wantEpoch)
			}
		}

		// Full structural comparison against the reference.
		if got, want := g.NumEdges(), len(ref.edges); got != want {
			t.Fatalf("NumEdges %d, want %d", got, want)
		}
		if math.Abs(g.TotalWeight()-ref.totalWeight()) > 1e-9 {
			t.Fatalf("TotalWeight %v, want %v", g.TotalWeight(), ref.totalWeight())
		}
		for key, w := range ref.edges {
			un, in := key[0], nu+key[1]
			if got := g.Weight(un, in); got != w {
				t.Fatalf("Weight(%d,%d) = %v, want %v", un, in, got, w)
			}
			if got := g.Weight(in, un); got != w {
				t.Fatalf("Weight(%d,%d) = %v, want %v (symmetry)", in, un, got, w)
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			if math.Abs(g.Degree(v)-ref.degree(v)) > 1e-9 {
				t.Fatalf("Degree(%d) = %v, want %v", v, g.Degree(v), ref.degree(v))
			}
			cols, ws := g.Neighbors(v)
			if len(cols) != len(ws) {
				t.Fatalf("Neighbors(%d) ragged", v)
			}
			for k := 1; k < len(cols); k++ {
				if cols[k-1] >= cols[k] {
					t.Fatalf("Neighbors(%d) columns not strictly increasing: %v", v, cols)
				}
			}
		}

		// And after compaction: byte-for-byte the batch-built graph.
		g.Compact()
		if g.PendingWrites() != 0 {
			t.Fatalf("PendingWrites %d after Compact", g.PendingWrites())
		}
		var ratings []Rating
		for key, w := range ref.edges {
			ratings = append(ratings, Rating{User: key[0], Item: key[1], Weight: w})
		}
		batch, err := FromRatings(nu, ni, ratings)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Adjacency().Equal(batch.Adjacency(), 1e-12) {
			t.Fatal("compacted live graph differs from batch-built graph")
		}
	})
}

// FuzzUpsertRatingAutoGrow drives the open-universe write path — upserts
// whose user/item ids may lie beyond the current universe, interleaved
// with explicit admissions, compactions and snapshot round-trips — and
// cross-checks the grown graph against the naive edge-map reference.
// Node ids of grown nodes are layout-dependent, so every comparison goes
// through the UserNode/ItemNode mapping rather than index arithmetic.
func FuzzUpsertRatingAutoGrow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 250, 1, 0, 99, 14, 14, 200, 5})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 128, 64, 32, 16})
	f.Add([]byte("the universe grows one cold-start rating at a time"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &byteDriver{data: data}
		nu := 1 + d.intn(6)
		ni := 1 + d.intn(8)
		ref := &refLiveGraph{nu: nu, ni: ni, edges: map[[2]int]float64{}}

		b := NewBuilder(nu, ni)
		for e := 0; e < d.intn(20); e++ {
			u, i := d.intn(nu), d.intn(ni)
			if _, dup := ref.edges[[2]int{u, i}]; dup {
				continue
			}
			w := float64(1+d.intn(500)) / 100
			if err := b.AddRating(u, i, w); err != nil {
				t.Fatal(err)
			}
			ref.edges[[2]int{u, i}] = w
		}
		g := b.Build()
		if th := d.intn(10); th > 0 {
			g.SetCompactThreshold(th)
		}

		wantEpoch := uint64(0)
		wantUsers, wantItems := nu, ni
		for op := 0; op < d.intn(70); op++ {
			switch d.next() % 8 {
			case 0:
				if idx := g.AddUser(); idx != wantUsers {
					t.Fatalf("AddUser index %d, want %d", idx, wantUsers)
				}
				wantUsers++
				wantEpoch++
			case 1:
				if idx := g.AddItem(); idx != wantItems {
					t.Fatalf("AddItem index %d, want %d", idx, wantItems)
				}
				wantItems++
				wantEpoch++
			case 2:
				g.Compact()
			default:
				// Ids up to 4 past the current universe edge: grows often,
				// stays in-universe often too.
				u := d.intn(wantUsers + 4)
				i := d.intn(wantItems + 4)
				w := float64(1+d.intn(500)) / 100
				key := [2]int{u, i}
				old, exists := ref.edges[key]
				added, err := g.UpsertRatingAutoGrow(u, i, w)
				if err != nil {
					t.Fatalf("UpsertRatingAutoGrow(%d,%d): %v", u, i, err)
				}
				if added == exists {
					t.Fatalf("UpsertRatingAutoGrow(%d,%d) added=%v but exists=%v", u, i, added, exists)
				}
				if u >= wantUsers {
					wantEpoch += uint64(u - wantUsers + 1)
					wantUsers = u + 1
				}
				if i >= wantItems {
					wantEpoch += uint64(i - wantItems + 1)
					wantItems = i + 1
				}
				if !exists || old != w {
					wantEpoch++
				}
				ref.edges[key] = w
			}
			if g.NumUsers() != wantUsers || g.NumItems() != wantItems {
				t.Fatalf("op %d: universe %d/%d, want %d/%d", op, g.NumUsers(), g.NumItems(), wantUsers, wantItems)
			}
			if g.Epoch() != wantEpoch {
				t.Fatalf("op %d: epoch %d, want %d", op, g.Epoch(), wantEpoch)
			}
		}

		// Full structural comparison through the id mapping.
		if got, want := g.NumEdges(), len(ref.edges); got != want {
			t.Fatalf("NumEdges %d, want %d", got, want)
		}
		if math.Abs(g.TotalWeight()-ref.totalWeight()) > 1e-9 {
			t.Fatalf("TotalWeight %v, want %v", g.TotalWeight(), ref.totalWeight())
		}
		refUserDeg := make([]float64, wantUsers)
		refItemDeg := make([]float64, wantItems)
		refPop := make([]int, wantItems)
		for key, w := range ref.edges {
			refUserDeg[key[0]] += w
			refItemDeg[key[1]] += w
			refPop[key[1]]++
			un, in := g.UserNode(key[0]), g.ItemNode(key[1])
			if got := g.Weight(un, in); got != w {
				t.Fatalf("Weight(user %d, item %d) = %v, want %v", key[0], key[1], got, w)
			}
			if got := g.Weight(in, un); got != w {
				t.Fatalf("Weight(item %d, user %d) = %v, want %v (symmetry)", key[1], key[0], got, w)
			}
		}
		for u := 0; u < wantUsers; u++ {
			if got := g.Degree(g.UserNode(u)); math.Abs(got-refUserDeg[u]) > 1e-9 {
				t.Fatalf("user %d degree %v, want %v", u, got, refUserDeg[u])
			}
			if g.UserIndex(g.UserNode(u)) != u {
				t.Fatalf("user %d mapping not invertible", u)
			}
		}
		pop := g.ItemPopularity()
		for i := 0; i < wantItems; i++ {
			if got := g.Degree(g.ItemNode(i)); math.Abs(got-refItemDeg[i]) > 1e-9 {
				t.Fatalf("item %d degree %v, want %v", i, got, refItemDeg[i])
			}
			if pop[i] != refPop[i] {
				t.Fatalf("item %d popularity %d, want %d", i, pop[i], refPop[i])
			}
			if g.ItemIndex(g.ItemNode(i)) != i {
				t.Fatalf("item %d mapping not invertible", i)
			}
		}

		// A snapshot round-trip of the grown graph preserves edges + epoch.
		g2, err := FromSnapshot(g.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if g2.Epoch() != g.Epoch() || g2.NumEdges() != g.NumEdges() ||
			g2.NumUsers() != wantUsers || g2.NumItems() != wantItems {
			t.Fatalf("round-trip diverged: epoch %d/%d edges %d/%d universe %d×%d/%d×%d",
				g2.Epoch(), g.Epoch(), g2.NumEdges(), g.NumEdges(),
				g2.NumUsers(), g2.NumItems(), wantUsers, wantItems)
		}
		for key, w := range ref.edges {
			if got := g2.Weight(g2.UserNode(key[0]), g2.ItemNode(key[1])); got != w {
				t.Fatalf("round-trip edge (%d,%d) = %v, want %v", key[0], key[1], got, w)
			}
		}
	})
}
