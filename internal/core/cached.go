// The revalidating result cache in front of any Recommender — the
// serving-layer half of the live-update design. Cached results are keyed
// by (user, algorithm, k, option set) and carry their dependency
// fingerprint: the graph epoch they were built at plus (for walk
// recommenders) a write-generation watermark and a bloom filter of the
// extracted subgraph's node ids. A lookup whose epoch moved is not
// automatically a miss anymore: the entry revalidates by scanning the
// graph's write journal for touches inside its bloom
// (graph.CheckFingerprint), so a write to user A leaves user B's entry
// alive unless B's subgraph plausibly contains a touched node. Entries
// without a usable fingerprint (non-walk recommenders, long-tail-only
// requests whose cutoff depends on the global popularity vector) fall
// back to exact epoch matching — the old behavior. Two requests that
// differ only in per-request options (candidate filters, exclusions,
// long-tail mode) can never share an entry — the option set is folded
// into the key as its exact canonical encoding (Request.OptionsKey).
// Repeat queries for an unchanged graph are served in O(1), and a
// thundering herd on one user computes once (singleflight).

package core

import (
	"context"
	"errors"
	"fmt"

	"longtailrec/internal/cache"
	"longtailrec/internal/graph"
)

// CacheEntry is one stored recommendation result plus the freshness
// evidence needed to revalidate it: the epoch read BEFORE its compute
// started (so an entry computed while a write landed can only be served
// epoch-exactly while that pre-compute epoch still stands — exactly the
// guarantee the old epoch-in-the-key design gave) and the walk's
// dependency fingerprint (invalid when the producing path can't
// fingerprint, e.g. non-walk recommenders or long-tail-only requests).
type CacheEntry struct {
	Resp       Response
	FP         graph.Fingerprint
	BuildEpoch uint64
}

// EntryValidator builds the cache validate function for entries served
// against g: epoch unchanged → fresh; otherwise the entry's fingerprint,
// when it has a valid one, is checked against g's write journal, and
// anything unprovable is stale. Used by CachedRecommender on every lookup
// and by the fleet's revalidation sweep (shard.Fleet.EvictStale) —
// validation is graph-level, not algorithm-level, so one validator serves
// every algorithm sharing a graph view.
func EntryValidator(g *graph.Bipartite) func(*CacheEntry) cache.Verdict {
	return func(e *CacheEntry) cache.Verdict {
		if e.BuildEpoch == g.Epoch() {
			return cache.VerdictFresh
		}
		if !e.FP.Valid() {
			return cache.VerdictStale
		}
		switch g.CheckFingerprint(&e.FP) {
		case graph.FingerprintFresh:
			return cache.VerdictFreshValidated
		case graph.FingerprintOverflow:
			return cache.VerdictStaleOverflow
		default:
			return cache.VerdictStaleFingerprint
		}
	}
}

// ServingStats is the live-serving state the HTTP layer reports on
// /v1/stats: where the write stream stands and how effective the result
// caching is, fleet-wide plus a per-shard breakdown.
type ServingStats struct {
	// Epoch is the fleet-wide epoch: total accepted live writes since
	// construction, summed across shards (with one shard, the graph
	// epoch exactly as before).
	Epoch uint64
	// PendingWrites is how many writes sit in the shards' delta
	// overlays, not yet compacted into their CSRs.
	PendingWrites int
	// CacheEnabled reports whether result caches are configured.
	CacheEnabled bool
	// Cache holds the result-cache counters summed across shards (zero
	// when disabled).
	Cache cache.Stats
	// Shards is the per-shard breakdown, indexed by shard — always
	// populated (length 1 for the single-replica stack). Each shard's
	// epoch and cache counters move independently: a write invalidates
	// only its own shard's cached results.
	Shards []ShardStats
	// Durability reports where the write-ahead log stands (zero value
	// when the stack runs without one).
	Durability DurabilityStats
}

// DurabilityStats is the write-ahead-log slice of ServingStats: whether
// writes are durable, how far durability has advanced, and how much is
// in flight.
type DurabilityStats struct {
	// Enabled reports whether a write-ahead log backs live writes.
	Enabled bool
	// DurableSeq is the global sequence number of the next record to be
	// logged; every accepted write below it is fsync'd (in the log or
	// folded into the last checkpoint).
	DurableSeq uint64
	// PendingBatch is how many submitted writes await their group-commit
	// batch — acknowledged to no one yet.
	PendingBatch int
	// LastCheckpointEpoch is the fleet-wide epoch at the moment the most
	// recent checkpoint was written (zero before the first one).
	LastCheckpointEpoch uint64
}

// ShardStats is one serving replica's slice of ServingStats: its own
// epoch, pending writes, live universe and cache counters.
type ShardStats struct {
	// Shard is the replica's index (the value shard.Assign routes to).
	Shard int
	// Epoch is this shard's graph epoch (accepted writes routed here).
	Epoch uint64
	// PendingWrites is this shard's uncompacted delta-overlay writes.
	PendingWrites int
	// NumUsers/NumItems are this shard's live universe sizes; shards
	// diverge as auto-grow admissions land on the written shard only.
	NumUsers, NumItems int
	// CacheEnabled reports whether this shard has a result cache.
	CacheEnabled bool
	// Cache holds this shard's result-cache counters (zero when
	// disabled).
	Cache cache.Stats
}

// CachedRecommender wraps a Recommender with a revalidating result cache
// (see the package comment above and EntryValidator). Recommend consults
// the cache; ScoreItems (a full-universe diagnostic vector) always
// recomputes. Safe for concurrent use when the inner recommender is.
type CachedRecommender struct {
	inner Recommender
	g     *graph.Bipartite
	cache *cache.Cache[CacheEntry]
	// validate is the entry validator bound to g, built once at
	// construction (one closure for the recommender's lifetime — none per
	// lookup).
	validate func(*CacheEntry) cache.Verdict
}

// NewCachedRecommender builds the caching wrapper over inner, which must
// serve from g (the graph whose epoch and write journal decide entry
// freshness). The cache may be shared across many wrapped algorithms:
// keys include the algorithm name, and revalidation is graph-level, so
// algorithms sharing a graph view share the validator's verdicts.
func NewCachedRecommender(inner Recommender, g *graph.Bipartite, c *cache.Cache[CacheEntry]) (*CachedRecommender, error) {
	if inner == nil || g == nil || c == nil {
		return nil, fmt.Errorf("core: NewCachedRecommender needs inner, graph and cache")
	}
	return &CachedRecommender{inner: inner, g: g, cache: c, validate: EntryValidator(g)}, nil
}

// Name implements Recommender.
func (r *CachedRecommender) Name() string { return r.inner.Name() }

// ScoreItems delegates to the wrapped recommender uncached.
func (r *CachedRecommender) ScoreItems(u int) ([]float64, error) {
	return r.inner.ScoreItems(u)
}

// key builds the cache key for one request. Freshness is NOT part of the
// key (entries revalidate on lookup); the request's context and fallback
// policy are deliberately absent too: neither shapes the personalized
// result (fallback is applied — and never cached — above this layer).
func (r *CachedRecommender) key(req Request) cache.Key {
	return cache.Key{
		User: req.User,
		Algo: r.inner.Name(),
		K:    req.K,
		Opts: req.OptionsKey(),
	}
}

// computeEntry runs one cache-miss compute, producing the storable entry:
// the epoch is read BEFORE the compute starts (see CacheEntry), and the
// inner recommender is asked for a fingerprint only when the request's
// result depends only on its subgraph — a long-tail-only cutoff reads the
// GLOBAL popularity vector, which any write anywhere can shift, so those
// entries stay epoch-exact (as do entries of an inner recommender that
// leaves the fingerprint invalid).
func (r *CachedRecommender) computeEntry(req Request) (CacheEntry, error) {
	ent := CacheEntry{BuildEpoch: r.g.Epoch()}
	fp := &ent.FP
	if req.LongTailOnly != 0 {
		fp = nil
	}
	resp, err := r.inner.Recommend(req, fp)
	if err != nil {
		return CacheEntry{}, err
	}
	ent.Resp = resp
	return ent, nil
}

// shareResponse copies a cached Response for one caller (the caller may
// mutate Items) and stamps the serving metadata for this lookup.
func shareResponse(v Response, epoch uint64, hit bool) Response {
	items := make([]Scored, len(v.Items))
	copy(items, v.Items)
	v.Items = items
	v.Epoch = epoch
	v.CacheHit = hit
	return v
}

// Recommend implements Recommender. On a hit the cached Response is
// returned (Items copied, so the caller may mutate them, CacheHit set); a
// hit is a stored entry the validator rules fresh —
// epoch unchanged, or proven untouched by its subgraph fingerprint. On a
// miss the inner recommender runs exactly once per (user, k, option set)
// regardless of concurrency. Errors — including ErrColdUser and a
// cancelled request context — are never cached.
//
// The singleflight leader computes under its own request context, so a
// leader that disconnects mid-walk aborts the shared compute. A
// piggybacked waiter is insulated in both directions: a waiter whose
// own context is cancelled stops waiting immediately with its own
// context error (cache.DoCtx), and a live waiter handed a dead
// leader's context error retries the lookup (becoming the new leader
// or joining a healthier flight) — one impatient client cannot poison
// a patient one. The retry is bounded.
//
// The wrapper reports no fingerprint of its own: *fp is left untouched.
func (r *CachedRecommender) Recommend(req Request, _ *graph.Fingerprint) (Response, error) {
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	key := r.key(req)
	// Serve under the epoch of the original lookup even across retries —
	// the same stamp the old epoch-keyed design put on hits and misses.
	epoch := r.g.Epoch()
	for attempt := 0; ; attempt++ {
		v, fromCache, err := r.cache.DoCtx(req.Ctx, key, r.validate, func() (CacheEntry, error) {
			return r.computeEntry(req)
		})
		if err != nil {
			// A context error surfaced by a shared flight belongs to the
			// flight's leader; if OUR context is live, try again — and
			// after repeatedly joining doomed flights, compute directly so
			// a patient caller is never failed by impatient strangers.
			if fromCache && isContextErr(err) && req.err() == nil {
				if attempt < 2 {
					continue
				}
				ent, cerr := r.computeEntry(req)
				if cerr != nil {
					return Response{}, cerr
				}
				r.cache.Put(key, ent)
				return shareResponse(ent.Resp, epoch, false), nil
			}
			return Response{}, err
		}
		return shareResponse(v.Resp, epoch, fromCache), nil
	}
}

// isContextErr reports whether err is a context cancellation/deadline.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// CacheStats returns the underlying cache counters.
func (r *CachedRecommender) CacheStats() cache.Stats { return r.cache.Stats() }
