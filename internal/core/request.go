// The first-class query surface: a Request carries everything one
// recommendation query needs — the user, the list size, a
// context.Context for cancellation/deadlines, and the per-request
// serving options a production edge wants to express (candidate
// filters, extra exclusions, long-tail-only mode, fallback policy) —
// and a Response carries the result plus its serving metadata (graph
// epoch, cache hit, fallback, resolved algorithm). Recommender.Recommend
// takes one Request and is the only query method there is; ServeBatch is
// the only fan-out.

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"longtailrec/internal/topk"
)

// ErrInvalidOptions marks a Request whose option fields are malformed
// (e.g. a LongTailOnly percentile outside [0,1] or a negative item id).
// The HTTP layer maps it to 400.
var ErrInvalidOptions = errors.New("core: invalid request options")

// Request is one recommendation query. The zero value of every field
// beyond User and K is the plain (user, k) query, and that no-options
// path stays on the allocation-disciplined fast path.
type Request struct {
	// Ctx cancels or deadlines the query: the walk engine checks it at
	// the subgraph-extraction boundaries and between τ sweeps, so an
	// abandoned request aborts mid-walk (its pooled scratch is returned
	// on every path). nil means context.Background() — no checks.
	Ctx context.Context
	// User is the query user index.
	User int
	// K is the list size. K <= 0 yields an empty list.
	K int
	// ExcludeItems are item indices to exclude beyond the user's rated
	// items (e.g. items already on screen). Order is irrelevant.
	ExcludeItems []int
	// CandidateItems restricts the result to this item set (e.g. an
	// in-stock or editorially-scoped slate). nil means the full catalog;
	// an empty non-nil slice yields an empty result.
	CandidateItems []int
	// LongTailOnly, when in (0,1], keeps only items at or below that
	// percentile of the live popularity distribution: 0.2 restricts the
	// list to the least-rated 20% of the catalog. 0 disables the filter.
	LongTailOnly float64
	// AllowFallback lets the serving layer (longtail.System, the HTTP
	// server) degrade a cold user to the deterministic popularity list
	// instead of failing. Recommenders themselves ignore it: fallback
	// needs the catalog-wide popularity ranking only the System holds.
	AllowFallback bool
}

// Response is the result of one Request.
type Response struct {
	// Items is the ranked list, best first. The caller owns the slice.
	Items []Scored
	// Fallback marks a degraded response: Items is the deterministic
	// popularity list because the algorithm could not anchor on the user.
	Fallback bool
	// Epoch is the graph epoch the result was computed (or cached) at.
	Epoch uint64
	// CacheHit reports whether the result came from the serving cache
	// (stored entry or a shared in-flight compute).
	CacheHit bool
	// Algo is the resolved algorithm name. Always non-empty on a served
	// response; batch paths use a zero Response to mark a cold user.
	Algo string
}

// Validate bounds-checks the option fields (LongTailOnly in [0,1] and
// not NaN, no negative item ids), wrapping failures in
// ErrInvalidOptions. Cheap (no allocation) for the no-options request;
// every Recommender implementation calls it, and serving layers may
// call it early to reject bad requests before resolving an algorithm.
func (r Request) Validate() error {
	if math.IsNaN(r.LongTailOnly) || r.LongTailOnly < 0 || r.LongTailOnly > 1 {
		return fmt.Errorf("%w: long-tail percentile %v outside [0,1]", ErrInvalidOptions, r.LongTailOnly)
	}
	for _, i := range r.ExcludeItems {
		if i < 0 {
			return fmt.Errorf("%w: negative excluded item %d", ErrInvalidOptions, i)
		}
	}
	for _, i := range r.CandidateItems {
		if i < 0 {
			return fmt.Errorf("%w: negative candidate item %d", ErrInvalidOptions, i)
		}
	}
	return nil
}

// HasOptions reports whether any result-shaping option is set (the
// context and fallback policy do not shape the personalized result) —
// the one definition of option presence, shared with the serving
// layer's fallback path.
func (r Request) HasOptions() bool {
	return len(r.ExcludeItems) > 0 || r.CandidateItems != nil || r.LongTailOnly > 0
}

// err returns the request context's error, nil when no context is set.
func (r Request) err() error {
	if r.Ctx == nil {
		return nil
	}
	return r.Ctx.Err()
}

// OptionsKey returns a canonical encoding of the result-shaping option
// set — the string the serving cache folds into its key so two requests
// with different options can never share an entry. It is exact (not a
// lossy hash): equal keys imply equal option semantics. Item lists are
// sorted and deduplicated, so {1,2} and {2,1,2} encode identically. The
// no-options request encodes as "" without allocating.
func (r Request) OptionsKey() string {
	if !r.HasOptions() {
		return ""
	}
	buf := make([]byte, 0, 16+8*(len(r.ExcludeItems)+len(r.CandidateItems)))
	appendIDs := func(tag byte, ids []int) {
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		sorted = slices.Compact(sorted)
		buf = append(buf, tag, ':')
		for j, id := range sorted {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(id), 10)
		}
		buf = append(buf, ';')
	}
	if len(r.ExcludeItems) > 0 {
		appendIDs('x', r.ExcludeItems)
	}
	if r.CandidateItems != nil {
		appendIDs('c', r.CandidateItems)
	}
	if r.LongTailOnly > 0 {
		buf = append(buf, 't', ':')
		buf = strconv.AppendFloat(buf, r.LongTailOnly, 'g', -1, 64)
		buf = append(buf, ';')
	}
	return string(buf)
}

// longTailCutoff returns the largest popularity an item may have while
// staying inside the pct percentile of the popularity distribution pop
// (ascending by value; ties share a bucket, so at least ceil(pct·n)
// items always qualify). scratch, when non-nil, is reused for the sort
// copy; the possibly-grown scratch is returned for pooling.
func longTailCutoff(pop []int, pct float64, scratch []int) (cutoff int, grown []int) {
	n := len(pop)
	if n == 0 {
		return 0, scratch
	}
	if cap(scratch) < n {
		scratch = make([]int, n, n+n/8)
	}
	scratch = scratch[:n]
	copy(scratch, pop)
	slices.Sort(scratch)
	idx := int(pct*float64(n)+0.999999) - 1 // ceil(pct·n)-1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return scratch[idx], scratch
}

// optionFilter builds the per-item predicate of a Request's
// result-shaping options — the single definition of what ExcludeItems,
// CandidateItems and LongTailOnly mean, shared by the adapter selection
// loop and the fallback post-filter (the engine has its own stamped,
// allocation-free equivalent). pop is the live popularity vector,
// consulted only when LongTailOnly is set.
func (r Request) optionFilter(pop []int) func(item int) bool {
	cutoff := 0
	if r.LongTailOnly > 0 {
		cutoff, _ = longTailCutoff(pop, r.LongTailOnly, nil)
	}
	var excluded, candidates map[int]struct{}
	if len(r.ExcludeItems) > 0 {
		excluded = make(map[int]struct{}, len(r.ExcludeItems))
		for _, i := range r.ExcludeItems {
			excluded[i] = struct{}{}
		}
	}
	if r.CandidateItems != nil {
		candidates = make(map[int]struct{}, len(r.CandidateItems))
		for _, i := range r.CandidateItems {
			candidates[i] = struct{}{}
		}
	}
	return func(i int) bool {
		if _, skip := excluded[i]; skip {
			return false
		}
		if r.CandidateItems != nil {
			if _, ok := candidates[i]; !ok {
				return false
			}
		}
		if r.LongTailOnly > 0 && i < len(pop) && pop[i] > cutoff {
			return false
		}
		return true
	}
}

// FilterScored applies a Request's result-shaping options to an
// already-ranked list — the post-filter for lists produced outside a
// Recommender (the popularity fallback). Order is preserved; the
// returned slice is freshly allocated.
func FilterScored(items []Scored, req Request, pop []int) []Scored {
	pass := req.optionFilter(pop)
	out := make([]Scored, 0, len(items))
	for _, it := range items {
		if pass(it.Item) {
			out = append(out, it)
		}
	}
	return out
}

// selectTopKFiltered ranks a full-universe score vector under a
// Request's option filters — the shared selection loop of the
// score-function adapters. rated is the user's rated-item set (always
// excluded).
func selectTopKFiltered(scores []float64, req Request, rated map[int]struct{}, pop []int) []Scored {
	pass := req.optionFilter(pop)
	sel := topk.NewSelector(req.K)
	for i, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, -1) {
			continue
		}
		if _, skip := rated[i]; skip {
			continue
		}
		if !pass(i) {
			continue
		}
		sel.Offer(i, s)
	}
	items := sel.Take()
	out := make([]Scored, len(items))
	for i, it := range items {
		out[i] = Scored{Item: it.ID, Score: it.Score}
	}
	return out
}

// ServeBatch is the one batch fan-out: it serves every Request through
// serve across up to parallelism workers (<= 0 means GOMAXPROCS) and
// returns one Response per Request, in input order. Each request keeps
// its own context. A cold user (ErrColdUser) yields a zero Response
// rather than failing the batch; any other error — including a cancelled
// per-request context — aborts it, and the first one is returned. serve
// must be safe for concurrent use; every Recommender in the suite is.
func ServeBatch(reqs []Request, parallelism int, serve func(Request) (Response, error)) ([]Response, error) {
	out := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(reqs) {
		parallelism = len(reqs)
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(-1)
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(reqs) || failed.Load() {
					return
				}
				resp, err := serve(reqs[i])
				if err != nil {
					if errors.Is(err, ErrColdUser) {
						continue // cold user: leave out[i] zero
					}
					errOnce.Do(func() { firstErr = fmt.Errorf("core: batch user %d: %w", reqs[i].User, err) })
					failed.Store(true)
					return
				}
				out[i] = resp
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
