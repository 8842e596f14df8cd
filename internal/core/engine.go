package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"longtailrec/internal/graph"
	"longtailrec/internal/markov"
	"longtailrec/internal/topk"
)

// ItemScore pairs an item index with its walk score — the compact,
// subgraph-resident result of a query. Only items inside the BFS subgraph
// appear; everything else is implicitly -Inf.
type ItemScore struct {
	Item  int
	Score float64
}

// walkSpec describes the query shape of one walk recommender: where the
// walk is anchored and which entry-cost model (Eq. 9) applies.
type walkSpec struct {
	// seedUser anchors seeds/absorbing at the query user's own node (HT);
	// otherwise the user's rated item nodes S_q are used (AT/AC).
	seedUser bool
	// costed switches from unit step costs (hitting/absorbing time) to the
	// Eq. 9 entry-cost model below.
	costed bool
	// userEnter[u] is the cost of entering user u (their entropy, floored).
	userEnter []float64
	// itemEnter[i] is the cost of entering item i; nil means the constant
	// userCost, the paper's C.
	itemEnter []float64
	userCost  float64
	// enterFloor is the entry cost charged for users (and, under the
	// symmetric model, items) admitted to the graph after the entropy
	// vectors were computed: a newcomer has no rating history, so their
	// entropy is zero and floors to the configured minimum.
	enterFloor float64
}

// Engine is the pooled walk query executor behind HT/AT/AC1/AC2 and the
// symmetric-cost extension (Algorithm 1's production path). Each query
// borrows a per-worker scratch — subgraph extractor, chain buffers, compact
// score slice — from a sync.Pool, so steady-state queries allocate only
// their result slices and the whole engine is safe for concurrent use.
type Engine struct {
	g    *graph.Bipartite
	opts WalkOptions
	pool sync.Pool
}

// NewEngine builds an engine over the graph with the given walk options.
// Scratch capacities are not frozen here: every query re-sizes off the
// graph's live node and item counts, so the engine keeps serving while
// the universe grows under it.
func NewEngine(g *graph.Bipartite, opts WalkOptions) *Engine {
	e := &Engine{g: g, opts: opts.withDefaults()}
	e.pool.New = func() any {
		return &engineScratch{ext: graph.NewSubgraphExtractor(g)}
	}
	return e
}

// Options returns the walk options the engine runs with (defaults applied).
func (e *Engine) Options() WalkOptions { return e.opts }

// engineScratch is one worker's reusable query state.
type engineScratch struct {
	ext     *graph.SubgraphExtractor
	chain   markov.Chain
	mkv     markov.ChainScratch
	absorb  []int       // local ids of absorbing states (exact path)
	compact []ItemScore // per-query compact result

	// exclStamp[item] == exclEpoch marks an item excluded from TopK
	// (already rated by the query user, or in Request.ExcludeItems).
	exclStamp []int
	exclEpoch int

	// candStamp[item] == candEpoch marks an item admitted by
	// Request.CandidateItems. Touched only by option-carrying requests.
	candStamp []int
	candEpoch int

	// popSorted is the sorted copy of the live popularity vector the
	// Request.LongTailOnly percentile cutoff is read from. Touched only
	// by option-carrying requests.
	popSorted []int
}

// scoreCompact runs Algorithm 1 for user u inside scr and returns the
// compact (item, score) slice, which aliases scr and is valid until the
// scratch's next query. Seeds occupy local ids 0..s-1 of the subgraph, so
// the absorbing set needs no per-node lookups.
//
// ctx, when non-nil, is checked at the subgraph-extraction boundaries
// and between the τ sweeps, so a cancelled or deadlined query aborts
// mid-walk; every return path leaves scr reusable, so the pooled
// scratch is never leaked. A nil ctx costs nothing.
//
// fp, when non-nil, is filled with the query's dependency fingerprint:
// the graph's write-generation watermark from before the seed read plus
// a bloom of every subgraph node AND the query user's node (the user's
// own row shapes the seed set and the rated-item exclusion, so a write
// there must invalidate even when the user fell outside the truncated
// subgraph). A nil fp costs nothing — the uncached hot path passes nil.
//
//ltr:allocfree
func (e *Engine) scoreCompact(ctx context.Context, scr *engineScratch, u int, spec walkSpec, fp *graph.Fingerprint) ([]ItemScore, error) {
	if err := validateUser(u, e.g.NumUsers()); err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: query aborted before extraction: %w", err)
		}
	}
	seeds, gen, err := e.readSeeds(scr, u, spec)
	if err != nil {
		return nil, err
	}
	return e.scoreSeeded(ctx, scr, u, seeds, gen, spec, fp)
}

// readSeeds is the first graph read a walk result depends on: the seed
// (= absorbing) node ids of user u, and the write-generation watermark
// read BEFORE them. Extract takes the graph lock again later, so a write
// to u's own row can land between the two reads; it carries a generation
// above gen and is therefore scanned by CheckFingerprint, whereas the
// watermark Extract captures would already cover it and rule the result
// Fresh although it was computed with the old absorbing set. An older
// watermark is always sound — it only scans more journal.
//
//ltr:allocfree
func (e *Engine) readSeeds(scr *engineScratch, u int, spec walkSpec) (seeds []int, gen uint64, err error) {
	gen = e.g.WriteGen()
	userNode := e.g.UserNode(u)
	// S_q as node ids is exactly the user node's neighbor list (aliased
	// parent storage; Extract only reads it). A user without ratings is
	// cold whichever node anchors the walk: from the user's own node (HT)
	// the subgraph would be that node alone.
	nbrs, _ := e.g.Neighbors(userNode)
	if len(nbrs) == 0 {
		return nil, 0, fmt.Errorf("%w: user %d", ErrColdUser, u)
	}
	if spec.seedUser {
		scr.absorb = append(scr.absorb[:0], userNode)
		return scr.absorb, gen, nil
	}
	return nbrs, gen, nil
}

// userEnterCost is the Eq. 9 cost of entering user node v. Users (and under
// AC3, items) past the end of the entropy vector joined after the model
// snapshot: they carry the floor cost until the entropies are recomputed.
//
//ltr:allocfree
func (e *Engine) userEnterCost(spec *walkSpec, v int) float64 {
	if idx := e.g.UserIndex(v); idx < len(spec.userEnter) {
		return spec.userEnter[idx]
	}
	return spec.enterFloor
}

// itemEnterCost is the Eq. 9 cost of entering item node v.
//
//ltr:allocfree
func (e *Engine) itemEnterCost(spec *walkSpec, v int) float64 {
	if spec.itemEnter == nil {
		return spec.userCost
	}
	if idx := e.g.ItemIndex(v); idx < len(spec.itemEnter) {
		return spec.itemEnter[idx]
	}
	return spec.enterFloor
}

// scoreSeeded is scoreCompact after the seed read: extraction, chain
// build, sweeps and the compact result, with fp stamped at gen, the
// watermark readSeeds returned alongside seeds.
//
//ltr:allocfree
func (e *Engine) scoreSeeded(ctx context.Context, scr *engineScratch, u int, seeds []int, gen uint64, spec walkSpec, fp *graph.Fingerprint) ([]ItemScore, error) {
	sg, err := scr.ext.Extract(seeds, e.opts.MaxSubgraphItems)
	if err != nil {
		return nil, fmt.Errorf("core: subgraph: %w", err)
	}
	if fp != nil {
		fp.Reset(gen)
		fp.AddNode(e.g.UserNode(u))
		for l, nl := 0, sg.Len(); l < nl; l++ {
			fp.AddNode(sg.OriginalNode(l))
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: query aborted after extraction: %w", err)
		}
	}
	if err := scr.chain.Reset(sg.Adjacency(), sg.Degrees()); err != nil {
		return nil, fmt.Errorf("core: chain: %w", err)
	}
	n := sg.Len()
	// Local ids are the seeds (= the absorbing set; distinct node ids, kept
	// in order), then the other users, then the other items: only a seed
	// has to be asked what it is.
	numAbsorb, firstItem := sg.Blocks()
	scr.mkv.Resize(n)
	var enter []float64
	if spec.costed {
		enter = scr.mkv.Enter
		for l := 0; l < numAbsorb; l++ {
			if orig := sg.OriginalNode(l); e.g.IsUserNode(orig) {
				enter[l] = e.userEnterCost(&spec, orig)
			} else {
				enter[l] = e.itemEnterCost(&spec, orig)
			}
		}
		for l := numAbsorb; l < firstItem; l++ {
			enter[l] = e.userEnterCost(&spec, sg.OriginalNode(l))
		}
		for l := firstItem; l < n; l++ {
			enter[l] = e.itemEnterCost(&spec, sg.OriginalNode(l))
		}
	}
	var times []float64
	if e.opts.Exact {
		// Diagnostic path: the linear-system solvers allocate internally,
		// which is acceptable off the truncated production path.
		scr.absorb = scr.absorb[:0]
		for l := 0; l < numAbsorb; l++ {
			scr.absorb = append(scr.absorb, l)
		}
		if !spec.costed {
			times, err = scr.chain.AbsorbingTimeExact(scr.absorb)
		} else {
			step := scr.chain.StepCostsInto(enter, scr.mkv.Nxt)
			times, err = scr.chain.AbsorbingCostExact(scr.absorb, step)
		}
	} else {
		for l := 0; l < numAbsorb; l++ {
			scr.mkv.Mask[l] = true
		}
		times, err = scr.chain.AbsorbingCostFusedCtx(ctx, &scr.mkv, enter, e.opts.Iterations)
	}
	if err != nil {
		return nil, fmt.Errorf("core: absorbing solve: %w", err)
	}
	// Item entries only: under the fused kernel's block schedule the user
	// entries are one sweep behind (see markov.AbsorbingCostFused).
	scr.compact = scr.compact[:0]
	for l := 0; l < numAbsorb; l++ {
		// An absorbing item: time 0, never +Inf.
		if orig := sg.OriginalNode(l); e.g.IsItemNode(orig) {
			scr.compact = append(scr.compact, ItemScore{Item: e.g.ItemIndex(orig), Score: -times[l]})
		}
	}
	for l := firstItem; l < n; l++ {
		if t := times[l]; !math.IsInf(t, 1) { // +Inf: unreachable even inside the subgraph
			scr.compact = append(scr.compact, ItemScore{Item: e.g.ItemIndex(sg.OriginalNode(l)), Score: -t})
		}
	}
	return scr.compact, nil
}

// scoreItemsCompact is the pooled public-path variant: it copies the
// compact result out of scratch so the caller owns it.
func (e *Engine) scoreItemsCompact(u int, spec walkSpec) ([]ItemScore, error) {
	scr := e.pool.Get().(*engineScratch)
	defer e.pool.Put(scr)
	compact, err := e.scoreCompact(nil, scr, u, spec, nil)
	if err != nil {
		return nil, err
	}
	out := make([]ItemScore, len(compact))
	copy(out, compact)
	return out, nil
}

// scoreItemsFull spreads the compact result over the full item universe
// (-Inf elsewhere), preserving the historical ScoreItems contract.
func (e *Engine) scoreItemsFull(u int, spec walkSpec) ([]float64, error) {
	scr := e.pool.Get().(*engineScratch)
	defer e.pool.Put(scr)
	compact, err := e.scoreCompact(nil, scr, u, spec, nil)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, e.g.NumItems())
	for i := range scores {
		scores[i] = math.Inf(-1)
	}
	for _, is := range compact {
		scores[is.Item] = is.Score
	}
	return scores, nil
}

// recommend serves one Request inside a scratch borrowed from the pool —
// the implementation behind every walk recommender's Recommend. The
// option-free request is the fast path: epoch-stamped exclusion of rated
// items, compact top-k, no per-query allocation beyond the result.
// Options add their own stamped structures (ExcludeItems folds into the
// exclusion stamps, CandidateItems into a second stamp array,
// LongTailOnly into a pooled popularity sort), so even the
// option-carrying paths settle into zero steady-state allocation.
func (e *Engine) recommend(req Request, spec walkSpec, algo string, fp *graph.Fingerprint) (Response, error) {
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	scr := e.pool.Get().(*engineScratch)
	defer e.pool.Put(scr)
	compact, err := e.scoreCompact(req.Ctx, scr, req.User, spec, fp)
	if err != nil {
		return Response{}, err
	}
	// Size the exclusion array off the live item count AFTER scoring: the
	// compact result was extracted under the graph lock, so every item in
	// it is covered. Appending (rather than reallocating) preserves the
	// capacity across queries; the zeroed extension can never equal the
	// bumped epoch.
	if n := e.g.NumItems(); n > len(scr.exclStamp) {
		scr.exclStamp = append(scr.exclStamp, make([]int, n-len(scr.exclStamp))...)
	}
	scr.exclEpoch++
	rated, _ := e.g.Neighbors(e.g.UserNode(req.User))
	for _, node := range rated {
		// A write racing this query can hand the user an item admitted
		// after the exclusion array was sized; it cannot be in compact
		// (older snapshot), so skipping the stamp is sound.
		if idx := e.g.ItemIndex(node); idx < len(scr.exclStamp) {
			scr.exclStamp[idx] = scr.exclEpoch
		}
	}
	for _, idx := range req.ExcludeItems {
		if idx < len(scr.exclStamp) {
			scr.exclStamp[idx] = scr.exclEpoch
		}
	}
	hasCand := req.CandidateItems != nil
	if hasCand {
		if n := e.g.NumItems(); n > len(scr.candStamp) {
			scr.candStamp = append(scr.candStamp, make([]int, n-len(scr.candStamp))...)
		}
		scr.candEpoch++
		for _, idx := range req.CandidateItems {
			if idx < len(scr.candStamp) {
				scr.candStamp[idx] = scr.candEpoch
			}
		}
	}
	var pop []int // the graph's memoised vector: shared, read-only
	cutoff := 0
	if req.LongTailOnly > 0 {
		pop = e.g.ItemPopularity()
		cutoff, scr.popSorted = longTailCutoff(pop, req.LongTailOnly, scr.popSorted)
	}
	sel := topk.NewSelector(req.K)
	for _, is := range compact {
		if scr.exclStamp[is.Item] == scr.exclEpoch || math.IsNaN(is.Score) {
			continue
		}
		if hasCand && (is.Item >= len(scr.candStamp) || scr.candStamp[is.Item] != scr.candEpoch) {
			continue
		}
		if is.Item < len(pop) && pop[is.Item] > cutoff {
			continue
		}
		sel.Offer(is.Item, is.Score)
	}
	items := sel.Take()
	out := make([]Scored, len(items))
	for i, it := range items {
		out[i] = Scored{Item: it.ID, Score: it.Score}
	}
	return Response{Items: out, Epoch: e.g.Epoch(), Algo: algo}, nil
}
