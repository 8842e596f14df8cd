// Package longtail is the public API of this library: a Go reproduction of
// "Challenging the Long Tail Recommendation" (Yin, Cui, Li, Yao, Chen;
// PVLDB 5(9), 2012).
//
// The paper proposes ranking items for a user by random-walk statistics on
// the user–item bipartite graph — Hitting Time (HT), Absorbing Time (AT)
// and two entropy-biased Absorbing Cost variants (AC1, AC2) — so that
// niche items a user would love outrank the generic popular items that
// classic recommenders push. This package wires the full suite together:
//
//	d, _ := longtail.LoadMovieLensFile("ratings.dat")
//	sys, _ := longtail.NewSystem(d.Data, longtail.DefaultConfig())
//	resp, _ := sys.Recommend(ctx, "AC2", longtail.Request{User: user, K: 10})
//	// resp.Items is the ranked list; AC2 trains its LDA entropy model lazily
//
// Everything is implemented from scratch on the standard library: sparse
// matrices, Markov-chain solvers, LDA (collapsed Gibbs), truncated SVD,
// personalized PageRank, and the paper's evaluation protocols. The suite
// is the nine algorithms of AlgorithmNames — the paper's seven, its AC3
// extension and the MostPopular floor — all resolved by name through
// System.Algorithm.
package longtail

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"longtailrec/internal/cache"
	"longtailrec/internal/cf"
	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
	"longtailrec/internal/entropy"
	"longtailrec/internal/graph"
	"longtailrec/internal/lda"
	"longtailrec/internal/pagerank"
	"longtailrec/internal/persist"
	"longtailrec/internal/svd"
	"longtailrec/internal/synth"
	"longtailrec/internal/topk"
	"longtailrec/internal/wal"
	"longtailrec/internal/worlds"
)

// Re-exported core types, so callers interact with one package.
type (
	// Recommender is the uniform algorithm interface (see internal/core).
	Recommender = core.Recommender
	// Scored pairs an item with its ranking score.
	Scored = core.Scored
	// Rating is a (user, item, score) observation.
	Rating = dataset.Rating
	// Dataset is an indexed rating collection.
	Dataset = dataset.Dataset
	// World is a synthetic corpus with ground truth (see internal/synth).
	World = synth.World
	// Anchor attributes a recommendation to one of the user's rated items.
	Anchor = core.Anchor
	// Request is one context-aware recommendation query: user, list size,
	// cancellation context and the per-request serving options
	// (exclusions, candidate slate, long-tail-only mode, fallback
	// policy). See internal/core.Request.
	Request = core.Request
	// Response is the result of one Request plus its serving metadata
	// (fallback, graph epoch, cache hit, resolved algorithm).
	Response = core.Response
)

// ErrColdUser is returned when a query user has no rated items.
var ErrColdUser = core.ErrColdUser

// ErrUnknownAlgorithm is wrapped by Algorithm (and every call that
// resolves a name through it) for a name outside AlgorithmNames.
var ErrUnknownAlgorithm = core.ErrUnknownAlgorithm

// MaxDenseAdmissions is the dense-admission cap of the auto-grow write
// path: one write may admit at most this many new user or item ids past
// the current universe edge (graph.MaxDenseAdmissions — the single
// source of truth, shared with the serving layer's out-of-range error
// text). Genuinely sparse external id spaces belong behind an id-mapping
// layer, not a larger cap.
const MaxDenseAdmissions = graph.MaxDenseAdmissions

// RecommendItems is the plain (user, k) query against one recommender —
// no context, no options, just the ranked list. System.Recommend is the
// serving surface (fallback, per-request options, cancellation).
func RecommendItems(r Recommender, u, k int) ([]Scored, error) {
	return core.RecommendItems(r, u, k)
}

// Config tunes the full algorithm suite.
type Config struct {
	// Walk carries µ (subgraph item budget) and τ (truncated iterations)
	// for HT/AT/AC (Algorithm 1 parameters).
	Walk core.WalkOptions
	// UserCost is the C constant of the Absorbing Cost model (Eq. 9).
	UserCost float64
	// EntropyFloor keeps step costs strictly positive.
	EntropyFloor float64
	// LDA configures both the AC2 entropy model and the LDA baseline.
	LDA lda.Config
	// SVDRank is the PureSVD factor count; <= 0 means 50.
	SVDRank int
	// PageRank configures the DPPR baseline (λ = 0.5 in the paper).
	PageRank pagerank.Options
	// KNNNeighbors is how many neighbors the SimilarItems index keeps per
	// item; <= 0 means 50.
	KNNNeighbors int
	// Seed drives every randomized component.
	Seed int64
	// CacheSize enables the recommendation result cache: up to this many
	// (user, algorithm, k, options) results are held across all
	// algorithms. Entries are not keyed by epoch: each records the
	// subgraph fingerprint it was computed from, and a lookup after live
	// writes revalidates it against the graph's write journal — served if
	// no write could have touched its subgraph, recomputed otherwise.
	// <= 0 disables caching — the right setting for offline evaluation;
	// serving deployments should size it to their hot user set (the
	// ltr-server binary defaults to 4096).
	CacheSize int
	// CompactThreshold is how many live rating writes may accumulate in
	// the graph's delta overlay before an automatic compaction folds them
	// into the CSR. <= 0 means 1024. Compaction never moves the epoch, so
	// it is invisible to the cache.
	CompactThreshold int
	// AutoGrow opens the universe to live traffic: ApplyRating admits
	// users and items the system has never seen (appending them to the
	// serving graph) instead of rejecting the write. The walk recommenders
	// serve newcomers as soon as they have edges; snapshot-trained
	// baselines report them cold until retrained. Off by default — the
	// right setting for offline evaluation against a frozen corpus;
	// ServingConfig turns it on.
	AutoGrow bool
	// WALDir enables durable live writes: ApplyRating group-commits
	// through an append-only, checksummed, fsync'd write-ahead log in
	// this directory (wal.log) and is acknowledged only after its batch
	// is durable. NewSystem recovers state from the directory first —
	// checkpoint.ltr if present, then the log's tail — so a restarted
	// system resumes with every acknowledged write intact. Empty (the
	// default) serves from memory only, exactly as before.
	WALDir string
	// WALMaxBatch caps how many concurrent writers one group-commit
	// batch (one fsync, one apply, one epoch bump) may carry. <= 0 means 64. Only meaningful with WALDir set.
	WALMaxBatch int
	// WALMaxDelay is how long the first writer of a batch may wait for
	// company before the batch commits anyway — trading single-write
	// latency for fsync amortization under light concurrency. <= 0 means
	// no timed wait (pure piggybacking: a batch forms from whatever
	// queued while the previous commit was in flight). Only meaningful
	// with WALDir set.
	WALMaxDelay time.Duration
}

// DefaultConfig returns the paper's defaults: µ = 6000, τ = 15, λ = 0.5,
// LDA α = 50/K, β = 0.1.
func DefaultConfig() Config {
	return Config{
		Walk:         core.WalkOptions{MaxSubgraphItems: 6000, Iterations: 15},
		UserCost:     1.0,
		EntropyFloor: 0.05,
		LDA:          lda.Config{NumTopics: 20, Iterations: 60},
		SVDRank:      50,
		PageRank:     pagerank.Options{Damping: 0.5},
		KNNNeighbors: 50,
	}
}

// ServingConfig returns DefaultConfig tuned for a live serving deployment:
// the recommendation result cache on at the given capacity (<= 0 means
// 4096), delta-overlay auto-compaction every compactThreshold writes, and
// the universe open to unseen users and items (AutoGrow).
func ServingConfig(cacheSize, compactThreshold int) Config {
	cfg := DefaultConfig()
	if cacheSize <= 0 {
		cacheSize = 4096
	}
	cfg.CacheSize = cacheSize
	cfg.CompactThreshold = compactThreshold
	cfg.AutoGrow = true
	return cfg
}

func (c Config) withDefaults() Config {
	if c.SVDRank <= 0 {
		c.SVDRank = 50
	}
	if c.KNNNeighbors <= 0 {
		c.KNNNeighbors = 50
	}
	if c.LDA.NumTopics <= 0 {
		c.LDA.NumTopics = 20
	}
	if c.UserCost <= 0 {
		c.UserCost = 1.0
	}
	if c.EntropyFloor <= 0 {
		c.EntropyFloor = 0.05
	}
	if c.CompactThreshold <= 0 {
		c.CompactThreshold = 1024
	}
	return c
}

// System bundles a training corpus with lazily constructed recommenders.
// Heavy models (LDA, SVD) are trained on first use and cached; a System is
// safe for concurrent use after construction.
//
// Serving runs on one live graph and one result cache: every recommender
// walks or filters against the graph, every live write lands in it, and
// every cached recommender shares the cache (keys carry the algorithm).
type System struct {
	data *dataset.Dataset
	cfg  Config

	// g is the serving graph; results is the result cache over it (nil
	// when Config.CacheSize <= 0).
	g       *graph.Bipartite
	results *cache.Cache[core.CacheEntry]

	// Durability (nil/zero without Config.WALDir): see durable.go.
	wlog          *wal.Log
	ing           *wal.Ingester[writeOutcome]
	lastCkptEpoch atomic.Uint64
	closeOnce     sync.Once
	closeErr      error

	mu         sync.Mutex
	ldaModel   *lda.Model
	ldaErr     error
	itemKNN    *cf.ItemKNN
	itemKNNErr error
	cache      map[string]Recommender
	errCache   map[string]error
}

// NewSystem indexes the dataset and prepares the algorithm suite. With
// Config.WALDir set it recovers the serving graph from the directory
// first — checkpoint.ltr if present, then the log's tail.
func NewSystem(d *dataset.Dataset, cfg Config) (*System, error) {
	if d == nil {
		return nil, fmt.Errorf("longtail: nil dataset")
	}
	cfg = cfg.withDefaults()
	s := &System{
		data:     d,
		cfg:      cfg,
		cache:    make(map[string]Recommender),
		errCache: make(map[string]error),
	}
	if cfg.CacheSize > 0 {
		s.results = cache.New[core.CacheEntry](cfg.CacheSize)
	}
	// Restore precedes serving: a checkpoint replaces the dataset-built
	// graph wholesale, and no recommender exists yet (they are built
	// lazily), so the swap cannot race a reader.
	if cfg.WALDir != "" {
		g, err := restoreCheckpoint(cfg.WALDir)
		if err != nil {
			return nil, err
		}
		s.g = g
	}
	if s.g == nil {
		s.g = d.Graph()
	}
	s.g.SetCompactThreshold(cfg.CompactThreshold)
	if cfg.WALDir != "" {
		if err := s.enableDurability(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Data returns the training dataset.
func (s *System) Data() *dataset.Dataset { return s.data }

// Graph returns the live serving graph every recommender reads and every
// ApplyRating writes.
func (s *System) Graph() *graph.Bipartite { return s.g }

// Epoch returns the serving epoch: the number of live rating writes
// accepted since construction. It versions responses (Response.Epoch);
// cached results are revalidated by subgraph fingerprint, not matched on
// the epoch.
func (s *System) Epoch() uint64 { return s.g.Epoch() }

// ApplyRating ingests one live rating write (insert or re-rate) into the
// serving graph, reporting whether a new edge was created and the epoch
// after the write. With Config.AutoGrow the universe is open: a user or
// item id the system has never seen is admitted (appended to the graph,
// epoch bumped per admission) instead of rejected — only negative ids and
// ids more than MaxDenseAdmissions past the universe edge still fail. The
// graph recommenders (HT, AT, AC1–AC3, DPPR) walk the new edge at once,
// but AC1–AC3 still charge the entropy costs of the training snapshot,
// and a user or item admitted after it pays the entropy floor on entry
// (core.Engine's userEnterCost). The dataset-trained models — PureSVD,
// LDA and MostPopular — keep scoring against the training snapshot until
// the System is rebuilt, and their responses do not say so; the dataset
// views (Data) are likewise snapshot-scoped.
func (s *System) ApplyRating(user, item int, score float64) (added bool, epoch uint64, err error) {
	switch {
	case s.ing != nil:
		added, epoch, err = s.applyDurable(user, item, score)
	case s.cfg.AutoGrow:
		added, err = s.g.UpsertRatingAutoGrow(user, item, score)
		epoch = s.g.Epoch()
	default:
		added, err = s.g.UpsertRating(user, item, score)
		epoch = s.g.Epoch()
	}
	if err != nil {
		return false, epoch, fmt.Errorf("longtail: %w", err)
	}
	return added, epoch, nil
}

// Universe returns the live serving universe: the user and item counts,
// including any users and items admitted through ApplyRating with
// AutoGrow on. Data().NumUsers()/NumItems() describe the training
// snapshot instead.
func (s *System) Universe() (numUsers, numItems int) {
	return s.g.NumUsers(), s.g.NumItems()
}

// LiveItemPopularityFor returns each item's live rater count — the dataset
// popularity plus every accepted live write, covering items admitted
// after construction. Every user reads the same vector; the argument
// names the request it decorates. The graph memoises the vector
// (graph.Bipartite.ItemPopularity): between writes every call returns the
// same shared slice for a few atomic loads, and the first call after a
// write, an admission or a fold recounts the catalog once. Do not modify
// the result.
func (s *System) LiveItemPopularityFor(user int) []int {
	return s.g.ItemPopularity()
}

// PopularItems returns the k most-rated items of the live graph, most
// popular first with ties broken toward the smaller item index — the
// deterministic non-personalized fallback the serving layer degrades to
// when an algorithm cannot anchor on a user. Items the user has already
// rated are excluded, matching every personalized path; pass a user
// outside the universe (e.g. -1) for the raw list.
func (s *System) PopularItems(user, k int) []Scored {
	return popularItemsFrom(s.g, s.g.ItemPopularity(), user, k)
}

// popularItemsFrom is the popularity ranking over an already-fetched
// live popularity vector of g, so callers that need the
// vector anyway (the option-filtered fallback) pay for one catalog scan,
// not two.
func popularItemsFrom(g *graph.Bipartite, pop []int, user, k int) []Scored {
	var rated map[int]struct{}
	if user >= 0 && user < g.NumUsers() {
		items, _ := g.UserItems(user)
		rated = make(map[int]struct{}, len(items))
		for _, i := range items {
			rated[i] = struct{}{}
		}
	}
	sel := topk.NewSelector(k)
	for i, p := range pop {
		if _, skip := rated[i]; skip {
			continue
		}
		sel.Offer(i, float64(p))
	}
	items := sel.Take()
	out := make([]Scored, len(items))
	for i, it := range items {
		out[i] = Scored{Item: it.ID, Score: it.Score}
	}
	return out
}

// CompactGraph folds the graph's pending delta-overlay writes into its
// CSR. Content-neutral: no epoch (and thus no cache entry) is touched.
// Writes also auto-compact every Config.CompactThreshold writes.
func (s *System) CompactGraph() { s.g.Compact() }

// ServingStats reports the live-serving state: the epoch (total accepted
// writes), pending overlay writes, the result-cache counters and where
// the write-ahead log stands.
func (s *System) ServingStats() core.ServingStats {
	st := core.ServingStats{
		Epoch:         s.g.Epoch(),
		PendingWrites: s.g.PendingWrites(),
		CacheEnabled:  s.results != nil,
		Durability:    s.durabilityStats(),
	}
	if s.results != nil {
		st.Cache = s.results.Stats()
	}
	return st
}

// EvictStaleCache eagerly revalidates cached results and drops the ones
// a live write has made stale (a lookup would recompute them anyway —
// this reclaims their memory). The cache is swept against the graph's
// write journal; an entry whose fingerprint proves no write touched its
// subgraph survives. Returns how many entries were removed. Each call is
// one bounded Revalidate sweep per cache shard, from the cold end, so it
// cannot stall serving lookups; on very large caches call it periodically
// to converge (ltr-server's -evict-interval janitor does exactly that).
// No-op without a cache.
func (s *System) EvictStaleCache() int {
	if s.results == nil {
		return 0
	}
	return s.results.Revalidate(core.EntryValidator(s.g))
}

// LDAModel returns the trained LDA model shared by AC2 and the LDA
// baseline, training it on first call.
func (s *System) LDAModel() (*lda.Model, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ldaModelLocked()
}

func (s *System) ldaModelLocked() (*lda.Model, error) {
	if s.ldaModel == nil && s.ldaErr == nil {
		cfg := s.cfg.LDA
		if cfg.Seed == 0 {
			cfg.Seed = s.cfg.Seed + 1
		}
		s.ldaModel, s.ldaErr = lda.Train(s.data, cfg)
	}
	return s.ldaModel, s.ldaErr
}

// build memoizes recommender construction under a name. prep runs once
// (under the System lock — it may train shared models) and builds the
// recommender over the serving graph; a failed construction is memoized
// too. When result caching is enabled the recommender is wrapped in the
// fingerprint-revalidated caching layer, so repeat queries the writes
// cannot have touched are O(1).
func (s *System) build(name string, prep func(*System) (Recommender, error)) (Recommender, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.cache[name]; ok {
		return r, nil
	}
	if err, ok := s.errCache[name]; ok {
		return nil, err
	}
	r, err := prep(s)
	if err == nil && s.results != nil {
		r, err = core.NewCachedRecommender(r, s.g, s.results)
	}
	if err != nil {
		s.errCache[name] = err
		return nil, err
	}
	s.cache[name] = r
	return r, nil
}

func (s *System) costOptions() core.CostOptions {
	return core.CostOptions{
		WalkOptions:  s.cfg.Walk,
		UserCost:     s.cfg.UserCost,
		EntropyFloor: s.cfg.EntropyFloor,
	}
}

// algorithmRegistry is the suite: one row per algorithm, in
// AlgorithmNames order. Algorithm resolves a name by its row and hands
// prep to build, which runs it once per System and memoizes the result;
// AlgorithmNames lists the rows. A name is served iff it has a row here,
// and an algorithm earns a row by being measured (an ltr-bench
// experiment or the serving benchmark runs it).
var algorithmRegistry = []struct {
	name string
	prep func(*System) (Recommender, error)
}{
	// Hitting Time (§3.3).
	{"HT", func(s *System) (Recommender, error) {
		return core.NewHittingTime(s.g, s.cfg.Walk), nil
	}},
	// Absorbing Time (§4.1, Algorithm 1).
	{"AT", func(s *System) (Recommender, error) {
		return core.NewAbsorbingTime(s.g, s.cfg.Walk), nil
	}},
	// Item-entropy Absorbing Cost (§4.2.2).
	{"AC1", func(s *System) (Recommender, error) {
		return core.NewAbsorbingCost(s.g, "AC1", entropy.AllItemBased(s.data), s.costOptions())
	}},
	// Topic-entropy Absorbing Cost (§4.2.3); trains the shared LDA model.
	{"AC2", func(s *System) (Recommender, error) {
		m, err := s.ldaModelLocked()
		if err != nil {
			return nil, fmt.Errorf("longtail: AC2 LDA training: %w", err)
		}
		return core.NewAbsorbingCost(s.g, "AC2", entropy.AllTopicBased(m), s.costOptions())
	}},
	// This library's symmetric extension of §4.2.1, not in the paper's
	// suite: user→item steps cost the item's rater entropy instead of the
	// constant C, so blockbuster hubs are expensive in both directions.
	{"AC3", func(s *System) (Recommender, error) {
		return core.NewSymmetricAbsorbingCost(s.g, "AC3",
			entropy.AllItemBased(s.data), entropy.AllItemEntropy(s.data), s.costOptions())
	}},
	// Discounted Personalized PageRank (Eq. 15), over the live graph.
	{"DPPR", func(s *System) (Recommender, error) {
		return core.NewFuncRecommender("DPPR", s.g, func(u int) ([]float64, error) {
			return pagerank.ForUser(s.g, u, s.cfg.PageRank)
		})
	}},
	// PureSVD (Cremonesi et al. 2010).
	{"PureSVD", func(s *System) (Recommender, error) {
		rank := min(s.cfg.SVDRank, s.data.NumUsers(), s.data.NumItems())
		model, err := svd.NewPureSVD(s.data, svd.Options{Rank: rank, Seed: s.cfg.Seed + 2})
		if err != nil {
			return nil, fmt.Errorf("longtail: PureSVD: %w", err)
		}
		return core.NewFuncRecommender("PureSVD", s.g, func(u int) ([]float64, error) {
			return model.ScoreAll(u, nil), nil
		})
	}},
	// LDA recommender (score = Σ_z θ_uz·φ_zi), over the model AC2 shares.
	{"LDA", func(s *System) (Recommender, error) {
		m, err := s.ldaModelLocked()
		if err != nil {
			return nil, fmt.Errorf("longtail: LDA training: %w", err)
		}
		return core.NewFuncRecommender("LDA", s.g, func(u int) ([]float64, error) {
			return m.ScoreAll(u, nil), nil
		})
	}},
	// The non-personalized popularity floor.
	{"MostPopular", func(s *System) (Recommender, error) {
		mp := cf.NewMostPopular(s.data)
		return core.NewFuncRecommender("MostPopular", s.g, func(u int) ([]float64, error) {
			return mp.ScoreAll(u, nil), nil
		})
	}},
}

// paperSuite is the paper's evaluated panel in its plotting order.
var paperSuite = []string{"AC2", "AC1", "AT", "HT", "DPPR", "PureSVD", "LDA"}

// PaperSuite returns the seven algorithms of the paper's evaluation in its
// plotting order: AC2, AC1, AT, HT, DPPR, PureSVD, LDA.
func (s *System) PaperSuite() ([]Recommender, error) {
	recs := make([]Recommender, len(paperSuite))
	for i, name := range paperSuite {
		rec, err := s.Algorithm(name)
		if err != nil {
			return nil, err
		}
		recs[i] = rec
	}
	return recs, nil
}

// Algorithm resolves a recommender by its paper name — one of
// AlgorithmNames, and nothing else resolves. It is the only way to get
// one: the first call for a name constructs it (training any model it
// needs), later calls return the same memoized recommender.
func (s *System) Algorithm(name string) (Recommender, error) {
	for _, entry := range algorithmRegistry {
		if entry.name == name {
			return s.build(name, entry.prep)
		}
	}
	return nil, fmt.Errorf("longtail: %w %q (want one of %v)", core.ErrUnknownAlgorithm, name, AlgorithmNames())
}

// Algorithms lists every name this System's Algorithm method accepts.
func (s *System) Algorithms() []string { return AlgorithmNames() }

// Recommend serves one context-aware recommendation Request through the
// named algorithm — the primary query surface. ctx bounds the whole
// query (the walk engine checks it at the subgraph-extraction
// boundaries and between τ sweeps, so a cancelled or deadlined request
// aborts mid-walk); when req.Ctx is also set, req.Ctx wins. The
// per-request options — ExcludeItems, CandidateItems, LongTailOnly —
// are honored natively by every recommender in the suite, and with
// req.AllowFallback a user the algorithm cannot anchor on (no rating
// history, or a snapshot model that predates them) degrades to the
// deterministic live-popularity list, filtered through the same
// options, instead of failing.
func (s *System) Recommend(ctx context.Context, algo string, req Request) (Response, error) {
	// Reject malformed options before resolving the algorithm: lazy
	// constructors (LDA training for AC2 and LDA, the SVD for PureSVD)
	// must not be triggered by a request that cannot be served anyway.
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	rec, err := s.Algorithm(algo)
	if err != nil {
		return Response{}, err
	}
	return s.serve(ctx, rec, req)
}

// serve is the one per-request function behind Recommend and
// RecommendRequests: ctx fills a request that carries none, and a cold
// user takes the popularity fallback when the request allows it.
func (s *System) serve(ctx context.Context, rec Recommender, req Request) (Response, error) {
	if req.Ctx == nil {
		req.Ctx = ctx
	}
	resp, err := rec.Recommend(req, nil)
	if err == nil {
		return resp, nil
	}
	if errors.Is(err, core.ErrColdUser) && req.AllowFallback {
		return s.fallbackResponse(req, rec.Name()), nil
	}
	return Response{}, err
}

// RecommendRequests serves a batch of Requests through the named
// algorithm — each exactly as Recommend would serve it — across up to
// parallelism goroutines (<= 0 means GOMAXPROCS). ctx fills any request
// whose own Ctx is nil, and each request's context is honored by the
// workers individually. Cold users degrade to the popularity fallback
// when their request allows it and yield a zero Response otherwise; any
// other error aborts the batch. Each Response's Epoch is the epoch of
// its own lookup.
func (s *System) RecommendRequests(ctx context.Context, algo string, reqs []Request, parallelism int) ([]Response, error) {
	// Reject malformed option sets before the (possibly lazy-training)
	// algorithm resolves.
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return nil, err
		}
	}
	rec, err := s.Algorithm(algo)
	if err != nil {
		return nil, err
	}
	return core.ServeBatch(reqs, parallelism, func(req Request) (Response, error) {
		return s.serve(ctx, rec, req)
	})
}

// fallbackResponse builds the degraded Response for a cold user: the
// deterministic live-popularity list minus the user's rated items, passed
// through the request's own option filters (so a long-tail-only or
// candidate-scoped request stays long-tail-only or candidate-scoped even
// when degraded). The Epoch is the graph's, matching every personalized
// response.
func (s *System) fallbackResponse(req Request, algo string) Response {
	k := req.K
	if k < 0 {
		k = 0
	}
	g := s.g
	var items []Scored
	if req.HasOptions() {
		// Pull the full popularity ranking so post-filtering can still
		// fill all k slots, sharing one catalog scan between the ranking
		// and the long-tail filter. Off the hot path: fallbacks are rare
		// and the catalog ranking is one bounded-heap pass.
		pop := g.ItemPopularity()
		full := popularItemsFrom(g, pop, req.User, len(pop))
		items = core.FilterScored(full, req, pop)
		if len(items) > k {
			items = items[:k]
		}
	} else {
		items = popularItemsFrom(g, g.ItemPopularity(), req.User, k)
	}
	return Response{
		Items:    items,
		Fallback: true,
		Epoch:    g.Epoch(),
		Algo:     algo,
	}
}

// AlgorithmNames lists every algorithm Algorithm accepts, in registry
// order.
func AlgorithmNames() []string {
	names := make([]string, len(algorithmRegistry))
	for i, entry := range algorithmRegistry {
		names[i] = entry.name
	}
	return names
}

// SimilarItem pairs an item with its similarity to a query item.
type SimilarItem = cf.SimilarItem

// SimilarItems returns up to k items most similar to item by cosine over
// the rating vectors — the "customers who liked this also liked"
// item-to-item view. Builds the kNN index lazily on first call.
func (s *System) SimilarItems(item, k int) ([]SimilarItem, error) {
	s.mu.Lock()
	if s.itemKNN == nil && s.itemKNNErr == nil {
		s.itemKNN, s.itemKNNErr = cf.NewItemKNN(s.data, s.cfg.KNNNeighbors)
	}
	knn, err := s.itemKNN, s.itemKNNErr
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("longtail: SimilarItems: %w", err)
	}
	return knn.SimilarItems(item, k)
}

// Explain decomposes a would-be recommendation of candidate to user u over
// the user's rated items, as absorption probabilities of the underlying
// random walk — "83% of walks from this item reach you through the movie
// you rated 5 stars". A diagnostic companion to the AT/AC recommenders;
// it runs on the serving graph, the same graph their recommendations
// walk.
func (s *System) Explain(u, candidate int) ([]Anchor, error) {
	return core.ExplainAbsorption(s.g, u, candidate, s.cfg.Walk)
}

// NewDataset validates and indexes ratings (see internal/dataset.New).
func NewDataset(numUsers, numItems int, ratings []Rating) (*Dataset, error) {
	return dataset.New(numUsers, numItems, ratings)
}

// Builder accumulates ratings incrementally (event-stream ingest) and
// materializes a Dataset; see internal/dataset.Builder.
type Builder = dataset.Builder

// DupPolicy resolves repeated (user, item) ratings during streaming
// ingest.
type DupPolicy = dataset.DupPolicy

// Duplicate policies for NewBuilder.
const (
	KeepLast  = dataset.KeepLast
	KeepFirst = dataset.KeepFirst
	KeepMax   = dataset.KeepMax
	Reject    = dataset.Reject
)

// NewBuilder returns an empty streaming dataset builder.
func NewBuilder(policy DupPolicy) *Builder { return dataset.NewBuilder(policy) }

// SaveDataset writes the dataset as a versioned, checksummed binary
// container (see internal/persist).
func SaveDataset(w io.Writer, d *Dataset) error { return persist.SaveDataset(w, d) }

// LoadDataset reads a dataset container written by SaveDataset.
func LoadDataset(r io.Reader) (*Dataset, error) { return persist.LoadDataset(r) }

// SaveDatasetFile writes a dataset container to path.
func SaveDatasetFile(path string, d *Dataset) error {
	return persist.SaveFile(path, func(w io.Writer) error { return persist.SaveDataset(w, d) })
}

// LoadDatasetFile reads a dataset container from path.
func LoadDatasetFile(path string) (*Dataset, error) {
	var d *Dataset
	err := persist.LoadFile(path, func(r io.Reader) error {
		var lerr error
		d, lerr = persist.LoadDataset(r)
		return lerr
	})
	return d, err
}

// LoadMovieLens parses MovieLens "UserID::MovieID::Rating::Timestamp" data.
func LoadMovieLens(r io.Reader) (*dataset.Loaded, error) { return dataset.LoadMovieLens(r) }

// LoadCSV parses "user,item,score" lines.
func LoadCSV(r io.Reader) (*dataset.Loaded, error) { return dataset.LoadCSV(r) }

// LoadTSV parses tab-separated "user item score" lines.
func LoadTSV(r io.Reader) (*dataset.Loaded, error) { return dataset.LoadTSV(r) }

// LoadMovieLensFile opens and parses a MovieLens ratings file.
func LoadMovieLensFile(path string) (*dataset.Loaded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("longtail: %w", err)
	}
	defer f.Close()
	return dataset.LoadMovieLens(f)
}

// GenerateMovieLensLike builds the synthetic MovieLens-shaped corpus used
// throughout the benchmarks (see DESIGN.md §4 for the substitution).
func GenerateMovieLensLike(seed int64) (*World, error) {
	cfg := synth.MovieLensLike()
	cfg.Seed = seed
	return synth.Generate(cfg)
}

// GenerateDoubanLike builds the synthetic Douban-shaped corpus.
func GenerateDoubanLike(seed int64) (*World, error) {
	cfg := synth.DoubanLike()
	cfg.Seed = seed
	return synth.Generate(cfg)
}

// GenerateWorld builds any corpus from the internal/worlds registry
// ("movielens", "douban", "clustered", ...) — the same single-sourced
// calibrations ltr-bench and the serving benchmark measure against.
func GenerateWorld(kind string, seed int64) (*World, error) {
	return worlds.Generate(kind, seed)
}

// WorldKinds returns the registered corpus kinds, sorted.
func WorldKinds() []string { return worlds.Kinds() }
