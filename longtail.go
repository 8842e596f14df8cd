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
// personalized PageRank, and the paper's evaluation protocols. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured results.
package longtail

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"longtailrec/internal/assoc"
	"longtailrec/internal/cache"
	"longtailrec/internal/cf"
	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
	"longtailrec/internal/entropy"
	"longtailrec/internal/graph"
	"longtailrec/internal/lda"
	"longtailrec/internal/markov"
	"longtailrec/internal/mf"
	"longtailrec/internal/pagerank"
	"longtailrec/internal/persist"
	"longtailrec/internal/shard"
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
	// Walk carries µ (subgraph item budget), τ (truncated iterations) and
	// the exact-solve switch for HT/AT/AC (Algorithm 1 parameters).
	Walk core.WalkOptions
	// UserCost is the C constant of the Absorbing Cost model (Eq. 9).
	UserCost float64
	// EntropyFloor keeps step costs strictly positive.
	EntropyFloor float64
	// LDA configures both the AC2 entropy model and the LDA baseline.
	LDA lda.Config
	// SVDRank is the PureSVD factor count; <= 0 means 50.
	SVDRank int
	// MF configures the SGD factorization baselines (BiasedMF, SVD++,
	// AsySVD); zero-valued fields take mf defaults.
	MF mf.Options
	// PageRank configures the DPPR baseline (λ = 0.5 in the paper).
	PageRank pagerank.Options
	// KNNNeighbors sizes the kNN baselines; <= 0 means 50.
	KNNNeighbors int
	// Seed drives every randomized component.
	Seed int64
	// CacheSize enables the epoch-invalidated recommendation result cache:
	// up to this many (user, algorithm, k) results are held across all
	// algorithms, keyed by graph epoch so live writes invalidate them.
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
	// ShardCount partitions serving across this many user-partitioned
	// replicas: each shard holds its own graph replica, result cache and
	// epoch, requests route to shard.Assign(user, ShardCount), and a live
	// write bumps only its own shard's epoch — so its cache-invalidation
	// blast radius is one shard, not the fleet. CacheSize is the total
	// budget, split evenly across shards. <= 1 means 1, the single-replica
	// stack (byte-identical to the unsharded behavior). All replicas are
	// views over ONE shared immutable base graph (each owns only its write
	// overlay, epoch and cache — graph.ShareViews), so the shard count is
	// a cache/invalidation knob, not a memory multiplier; cross-shard
	// consistency is eventual (a write is visible to its own user's shard
	// immediately, to other shards' walks only at the next compaction or
	// snapshot refresh — see SnapshotRefresh).
	ShardCount int
	// WALDir enables durable live writes: ApplyRating group-commits
	// through an append-only, checksummed, fsync'd write-ahead log in
	// this directory (wal.log) and is acknowledged only after its batch
	// is durable. NewSystem recovers state from the directory first —
	// checkpoint.ltr if present, then the log's tail — so a restarted
	// system resumes with every acknowledged write intact. Empty (the
	// default) serves from memory only, exactly as before.
	WALDir string
	// WALMaxBatch caps how many concurrent writers one group-commit
	// batch (one fsync, one apply, one epoch bump per written shard) may
	// carry. <= 0 means 64. Only meaningful with WALDir set.
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
		MF:           mf.DefaultOptions(),
		PageRank:     pagerank.Options{Damping: 0.5},
		KNNNeighbors: 50,
	}
}

// ServingConfig returns DefaultConfig tuned for a live serving deployment:
// the recommendation result cache on at the given capacity (<= 0 means
// 4096), delta-overlay auto-compaction every compactThreshold writes, and
// the universe open to unseen users and items (AutoGrow). ShardCount
// defaults to 1 — the single-replica stack; deployments with a heavy
// mixed read/write stream raise it to confine each write's cache
// invalidation to its own shard (ltr-server's -shards flag).
func ServingConfig(cacheSize, compactThreshold int) Config {
	cfg := DefaultConfig()
	if cacheSize <= 0 {
		cacheSize = 4096
	}
	cfg.CacheSize = cacheSize
	cfg.CompactThreshold = compactThreshold
	cfg.AutoGrow = true
	cfg.ShardCount = 1
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
	if c.ShardCount <= 1 {
		c.ShardCount = 1
	}
	return c
}

// System bundles a training corpus with lazily constructed recommenders.
// Heavy models (LDA, SVD) are trained on first use and cached; a System is
// safe for concurrent use after construction.
//
// Serving runs on a fleet of Config.ShardCount user-partitioned replicas
// (internal/shard): each shard holds its own graph replica, result cache
// and epoch; reads and writes for a user route to shard.Assign(user, N),
// so a live write invalidates only its own shard's cached results. With
// ShardCount 1 (the default) the fleet is exactly the old single-replica
// stack. Shared dataset-derived models (LDA, SVD, entropies, kNN) are
// trained once and reused by every shard's recommender.
type System struct {
	data *dataset.Dataset
	cfg  Config

	// fleet owns the serving replicas: per-shard graph, result cache and
	// epoch. Always non-nil with at least one replica.
	fleet *shard.Fleet
	// basePop is the item popularity of the corpus every replica was
	// built from — the baseline the fleet's merged live popularity sums
	// per-shard write deltas over.
	basePop []int

	// ckptPath is where SnapshotRefresh writes the fleet checkpoint
	// (empty when durability is off).
	ckptPath  string
	closeOnce sync.Once
	closeErr  error

	mu         sync.Mutex
	ldaModel   *lda.Model
	ldaErr     error
	itemKNN    *cf.ItemKNN
	itemKNNErr error
	cache      map[string]Recommender
	errCache   map[string]error
}

// WAL artifact names inside Config.WALDir.
const (
	walFileName        = "wal.log"
	checkpointFileName = "checkpoint.ltr"
)

// NewSystem indexes the dataset and prepares the algorithm suite,
// building Config.ShardCount serving views over ONE shared corpus graph.
func NewSystem(d *dataset.Dataset, cfg Config) (*System, error) {
	if d == nil {
		return nil, fmt.Errorf("longtail: nil dataset")
	}
	cfg = cfg.withDefaults()
	perShardCache := 0
	if cfg.CacheSize > 0 {
		// The configured capacity is the fleet-wide budget, split evenly.
		perShardCache = (cfg.CacheSize + cfg.ShardCount - 1) / cfg.ShardCount
	}
	// Restore precedes fleet construction: a checkpoint replaces the
	// dataset-built graph wholesale, and no recommender exists yet (they
	// are built lazily), so the swap cannot race a reader.
	views, err := buildGraphViews(d, cfg)
	if err != nil {
		return nil, err
	}
	replicas := make([]*shard.Replica, cfg.ShardCount)
	for i := range replicas {
		rep := &shard.Replica{Graph: views[i]}
		if perShardCache > 0 {
			rep.Cache = cache.New[core.CacheEntry](perShardCache)
		}
		replicas[i] = rep
	}
	fleet, err := shard.NewFleet(replicas)
	if err != nil {
		return nil, fmt.Errorf("longtail: %w", err)
	}
	if cfg.ShardCount > 1 {
		// Shared-base views cannot auto-fold from inside their own write
		// path; the fleet watches the pending total and drives the group
		// fold. (The single-view graph folds inline, set above.)
		fleet.SetCompactThreshold(cfg.CompactThreshold)
	}
	s := &System{
		data:     d,
		cfg:      cfg,
		fleet:    fleet,
		basePop:  replicas[0].Graph.ItemPopularity(),
		cache:    make(map[string]Recommender),
		errCache: make(map[string]error),
	}
	if cfg.WALDir != "" {
		if err := s.enableDurability(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildGraphViews constructs the fleet's ShardCount graph views — from
// Config.WALDir's checkpoint when one exists, else fresh from the
// dataset. One base graph is built either way; with ShardCount > 1 it is
// split into shared-base views (graph.ShareViews), so fleet memory does
// not scale with the shard count.
func buildGraphViews(d *dataset.Dataset, cfg Config) ([]*graph.Bipartite, error) {
	if cfg.WALDir != "" {
		views, ok, err := restoreCheckpointViews(cfg)
		if err != nil {
			return nil, err
		}
		if ok {
			return views, nil
		}
	}
	g := d.Graph()
	if cfg.ShardCount <= 1 {
		g.SetCompactThreshold(cfg.CompactThreshold)
		return []*graph.Bipartite{g}, nil
	}
	return graph.ShareViews(g, cfg.ShardCount), nil
}

// restoreCheckpointViews rebuilds the fleet's graph views from the
// checkpoint in Config.WALDir, reporting ok=false on first boot (no
// checkpoint yet). Both checkpoint formats load: a shared-base image
// (KindSharedCheckpoint) natively, a legacy per-shard image
// (KindCheckpoint) by conversion — so a server upgraded across the
// format change restarts from its old checkpoint. The base graph is
// rebuilt once with its original base/live universe split preserved (so
// models trained against the dataset universe still validate after live
// admissions), then split into views, each replaying its own overlay
// delta and resuming its recorded epoch.
func restoreCheckpointViews(cfg Config) ([]*graph.Bipartite, bool, error) {
	path := filepath.Join(cfg.WALDir, checkpointFileName)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil // first boot: nothing to restore
		}
		return nil, false, fmt.Errorf("longtail: checkpoint: %w", err)
	}
	var cp *persist.SharedFleetCheckpoint
	if err := persist.LoadFile(path, func(r io.Reader) error {
		var lerr error
		cp, lerr = persist.LoadAnyFleetCheckpoint(r)
		return lerr
	}); err != nil {
		return nil, false, fmt.Errorf("longtail: checkpoint: %w", err)
	}
	if len(cp.Shards) != cfg.ShardCount {
		return nil, false, fmt.Errorf("longtail: checkpoint holds %d shards, config wants %d — restart with the checkpointed shard count (resharding needs a rebuild from the dataset)",
			len(cp.Shards), cfg.ShardCount)
	}
	g, err := graph.FromSnapshotWithBase(cp.Base, cp.BaseUsers, cp.BaseItems)
	if err != nil {
		return nil, false, fmt.Errorf("longtail: checkpoint base: %w", err)
	}
	if cfg.ShardCount <= 1 {
		if err := replayOverlay(g, cp.Shards[0], 0); err != nil {
			return nil, false, err
		}
		g.SetCompactThreshold(cfg.CompactThreshold)
		return []*graph.Bipartite{g}, true, nil
	}
	views := graph.ShareViews(g, cfg.ShardCount)
	for i, ov := range cp.Shards {
		if err := replayOverlay(views[i], ov, i); err != nil {
			return nil, false, err
		}
	}
	return views, true, nil
}

// replayOverlay re-applies one shard's checkpointed overlay delta to its
// view and resumes the recorded epoch (authoritative: the replay itself
// moves the counter, as live writes would).
func replayOverlay(g *graph.Bipartite, ov persist.ShardOverlay, shardIdx int) error {
	for _, r := range ov.Deltas {
		if _, err := g.UpsertRating(r.User, r.Item, r.Weight); err != nil {
			return fmt.Errorf("longtail: checkpoint shard %d delta (%d,%d): %w", shardIdx, r.User, r.Item, err)
		}
	}
	g.RestoreEpoch(ov.Epoch)
	return nil
}

// enableDurability opens the write-ahead log, replays its tail over the
// (possibly checkpoint-restored) fleet, and arms the group-commit write
// path. Called once from NewSystem.
func (s *System) enableDurability() error {
	if err := os.MkdirAll(s.cfg.WALDir, 0o755); err != nil {
		return fmt.Errorf("longtail: wal dir: %w", err)
	}
	s.ckptPath = filepath.Join(s.cfg.WALDir, checkpointFileName)
	log, err := wal.Open(filepath.Join(s.cfg.WALDir, walFileName))
	if err != nil {
		return fmt.Errorf("longtail: %w", err)
	}
	// The restored images cover every record below the log's base
	// sequence; the epoch they carry is the last checkpoint's.
	s.fleet.SetLastCheckpointEpoch(s.fleet.Epoch())
	// Replay the tail: every durable record the last checkpoint does not
	// cover, applied to its home shard exactly as live traffic would be.
	// A torn final record (crash mid-append) was already truncated away
	// by Open; a crash between checkpoint and log truncation leaves
	// records below the checkpoint's coverage, which the sequence gate
	// skips.
	if err := log.Replay(log.BaseSeq(), func(_ uint64, rec wal.Record) error {
		return s.fleet.ApplyRecord(rec)
	}); err != nil {
		log.Close()
		return fmt.Errorf("longtail: wal replay: %w", err)
	}
	if err := s.fleet.EnableDurability(log, wal.BatchOptions{
		MaxBatch: s.cfg.WALMaxBatch,
		MaxDelay: s.cfg.WALMaxDelay,
	}); err != nil {
		log.Close()
		return fmt.Errorf("longtail: %w", err)
	}
	return nil
}

// SnapshotRefresh runs one durability maintenance cycle: it converges
// every shard replica (replaying the write-ahead log's tail into the
// shards that did not originally receive each write — closing the
// cross-shard eventual-consistency gap), compacts the fleet, writes an
// atomic checkpoint to Config.WALDir and truncates the log behind it.
// Serialized against the group-commit stream, so acknowledged writes are
// never lost or double-applied; concurrent reads keep being served (a
// converged shard's epoch moves once per refresh, invalidating its
// cached results in one step). Errors if the System has no WALDir.
// ltr-server runs this on a timer (-checkpoint-interval).
func (s *System) SnapshotRefresh() error {
	if s.ckptPath == "" {
		return fmt.Errorf("longtail: no WAL directory configured")
	}
	if err := s.fleet.SnapshotRefresh(s.ckptPath); err != nil {
		return fmt.Errorf("longtail: %w", err)
	}
	return nil
}

// Close shuts the durable write path down gracefully: it commits the
// pending group-commit batch (writers racing Close get a retryable
// error), writes a final checkpoint covering everything, and closes the
// log. Idempotent; a no-op for systems without a WAL directory. Serving
// reads remain available throughout and after.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		if s.ckptPath == "" {
			return
		}
		s.fleet.FlushDurability()
		if err := s.fleet.SnapshotRefresh(s.ckptPath); err != nil {
			s.closeErr = fmt.Errorf("longtail: final checkpoint: %w", err)
		}
		if err := s.fleet.CloseDurability(); err != nil && s.closeErr == nil {
			s.closeErr = fmt.Errorf("longtail: %w", err)
		}
	})
	return s.closeErr
}

// Data returns the training dataset.
func (s *System) Data() *dataset.Dataset { return s.data }

// Graph returns the primary (shard 0) user–item bipartite graph — with
// ShardCount 1, the serving graph exactly as before. On a sharded system
// prefer the System-level surfaces (ApplyRating, Universe, ...), which
// route by user; writing this graph directly bypasses shard routing, and
// persisting it alone drops the live writes routed to the other shards —
// save every ShardGraph(i) instead (see SaveGraph).
func (s *System) Graph() *graph.Bipartite { return s.fleet.Replica(0).Graph }

// ShardGraph returns shard i's serving graph (i in [0, ShardCount())).
// A sharded deployment that snapshots its live state must persist every
// shard's graph — each holds only the live writes routed to it.
func (s *System) ShardGraph(i int) *graph.Bipartite { return s.fleet.Replica(i).Graph }

// ShardCount returns the number of serving replicas.
func (s *System) ShardCount() int { return s.fleet.NumShards() }

// ShardFor returns the shard index serving the given user — the
// consistent assignment every read and write for that user routes to.
func (s *System) ShardFor(user int) int { return s.fleet.ShardFor(user) }

// Epoch returns the fleet-wide serving epoch: the number of live rating
// writes accepted since construction, summed across shards. Cached
// recommendation results are keyed on their own shard's epoch.
func (s *System) Epoch() uint64 { return s.fleet.Epoch() }

// ApplyRating ingests one live rating write (insert or re-rate) into the
// writing user's serving shard, reporting whether a new edge was created
// and THAT SHARD's epoch after the write — only the written shard's
// cached results are invalidated; the other shards' caches stay warm.
// With Config.AutoGrow the universe is open: a user or item id the
// system has never seen is admitted (appended to the shard's graph,
// epoch bumped per admission) instead of rejected — only negative ids
// and ids more than MaxDenseAdmissions past the universe edge still
// fail. The write is immediately visible to the walk recommenders
// (HT/AT/AC*) serving that user's shard. Dataset-derived baselines
// (PureSVD, LDA, kNN, …) and the graph-snapshot comparators (Katz,
// CommuteTime, RWR — whose chains are frozen at lazy construction) keep
// scoring against their snapshot until rebuilt; the dataset views (Data)
// are likewise snapshot-scoped.
func (s *System) ApplyRating(user, item int, score float64) (added bool, epoch uint64, err error) {
	added, epoch, _, err = s.fleet.ApplyRating(user, item, score, s.cfg.AutoGrow)
	if err != nil {
		return false, epoch, fmt.Errorf("longtail: %w", err)
	}
	return added, epoch, nil
}

// Universe returns the live serving universe: the fleet-wide user and
// item counts, including any users and items admitted through
// ApplyRating with AutoGrow on (admissions land on the writing user's
// shard; the fleet universe is the per-side maximum, i.e. the union).
// Data().NumUsers()/NumItems() describe the training snapshot instead.
func (s *System) Universe() (numUsers, numItems int) {
	return s.fleet.Universe()
}

// LiveItemPopularity returns each item's live rater count — the dataset
// popularity plus every accepted live write across all shards, covering
// items admitted after construction. With one shard it is that shard's
// memoised vector (see LiveItemPopularityFor); a sharded fleet merges a
// fresh one on every call, so latency-sensitive per-user callers should
// use LiveItemPopularityFor instead. Do not modify the result.
func (s *System) LiveItemPopularity() []int {
	return s.fleet.MergedItemPopularity(s.basePop)
}

// LiveItemPopularityFor returns the live rater counts as seen by the
// given user's serving shard — the view consistent with that user's
// recommendations. The shard's graph memoises the vector
// (graph.Bipartite.ItemPopularity): between writes every call returns
// the same shared slice for a few atomic loads, and the first call after
// a write to that shard, an admission anywhere in the fleet or a fold
// recounts the catalog once. Do not modify the result.
func (s *System) LiveItemPopularityFor(user int) []int {
	return s.fleet.GraphFor(user).ItemPopularity()
}

// PopularItems returns the k most-rated items of the user's serving
// shard, most popular first with ties broken toward the smaller item
// index — the deterministic non-personalized fallback the serving layer
// degrades to when an algorithm cannot anchor on a user. Items the user
// has already rated (per that shard's live graph) are excluded, matching
// every personalized path; pass a user outside the universe (e.g. -1)
// for the raw list.
func (s *System) PopularItems(user, k int) []Scored {
	g := s.fleet.GraphFor(user)
	return popularItemsFrom(g, g.ItemPopularity(), user, k)
}

// popularItemsFrom is the popularity ranking over an already-fetched
// live popularity vector of one shard's graph, so callers that need the
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

// CompactGraph folds every shard's pending delta-overlay writes into its
// CSR. Content-neutral: no epoch (and thus no cache entry) is touched.
// Writes also auto-compact every Config.CompactThreshold writes.
func (s *System) CompactGraph() { s.fleet.Compact() }

// ServingStats reports the live-serving state: the fleet-wide epoch
// (total accepted writes), pending overlay writes and result-cache
// counters summed across shards, plus the per-shard breakdown in
// Shards — each shard's own epoch, universe and cache counters (length
// 1 on the single-replica stack).
func (s *System) ServingStats() core.ServingStats {
	shards := s.fleet.ShardStats()
	st := core.ServingStats{
		CacheEnabled: s.cfg.CacheSize > 0,
		Shards:       shards,
	}
	for _, sh := range shards {
		st.Epoch += sh.Epoch
		st.PendingWrites += sh.PendingWrites
		st.Cache.Hits += sh.Cache.Hits
		st.Cache.Misses += sh.Cache.Misses
		st.Cache.Shared += sh.Cache.Shared
		st.Cache.Evictions += sh.Cache.Evictions
		st.Cache.FingerprintHits += sh.Cache.FingerprintHits
		st.Cache.FingerprintRejects += sh.Cache.FingerprintRejects
		st.Cache.JournalOverflows += sh.Cache.JournalOverflows
		st.Cache.Size += sh.Cache.Size
		st.Cache.Capacity += sh.Cache.Capacity
	}
	st.Durability = s.fleet.DurabilityStats()
	return st
}

// EvictStaleCache eagerly drops cached results from earlier epochs (they
// are already unreachable — this reclaims their memory), sweeping each
// shard's cache against that shard's own epoch, and returns how many
// entries were removed. Each call does a bounded amount of work per
// cache shard so it cannot stall serving lookups; on very large caches
// call it periodically to converge (ltr-server's -evict-interval janitor
// does exactly that). No-op without caches.
func (s *System) EvictStaleCache() int { return s.fleet.EvictStale() }

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

// replicaFactory builds one shard's recommender over that shard's graph.
// Shared dataset-derived state (trained models, entropy vectors) is
// computed once by the prep stage of build and captured by the factory,
// so only the graph-bound wiring runs per shard.
type replicaFactory func(g *graph.Bipartite) (Recommender, error)

// build memoizes recommender construction under a name. prep runs once
// (under the System lock — it may train shared models) and returns the
// per-shard factory; the factory then runs once per serving replica over
// that replica's graph. When result caching is enabled every per-shard
// recommender is wrapped in that shard's epoch-invalidated caching
// layer, so repeat queries against an unchanged shard are O(1); with
// more than one shard the per-shard recommenders are fronted by a
// shard.Router that routes by user id.
func (s *System) build(name string, prep func() (replicaFactory, error)) (Recommender, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.cache[name]; ok {
		return r, nil
	}
	if err, ok := s.errCache[name]; ok {
		return nil, err
	}
	r, err := s.buildLocked(name, prep)
	if err != nil {
		s.errCache[name] = err
		return nil, err
	}
	s.cache[name] = r
	return r, nil
}

func (s *System) buildLocked(name string, prep func() (replicaFactory, error)) (Recommender, error) {
	mk, err := prep()
	if err != nil {
		return nil, err
	}
	n := s.fleet.NumShards()
	perShard := make([]Recommender, n)
	for i := 0; i < n; i++ {
		rep := s.fleet.Replica(i)
		rec, err := mk(rep.Graph)
		if err != nil {
			return nil, err
		}
		if rep.Cache != nil {
			if rec, err = core.NewCachedRecommender(rec, rep.Graph, rep.Cache); err != nil {
				return nil, err
			}
		}
		perShard[i] = rec
	}
	if n == 1 {
		// Single replica: serve the recommender directly — the exact
		// unsharded stack, no routing layer on the hot path.
		return perShard[0], nil
	}
	router, err := shard.NewRouter(name, perShard)
	if err != nil {
		return nil, err
	}
	return router, nil
}

// mustBuild is build for per-shard constructors that cannot fail.
func (s *System) mustBuild(name string, mk func(g *graph.Bipartite) Recommender) Recommender {
	r, err := s.build(name, func() (replicaFactory, error) {
		return func(g *graph.Bipartite) (Recommender, error) { return mk(g), nil }, nil
	})
	if err != nil {
		panic(fmt.Sprintf("longtail: %s: %v", name, err)) // unreachable
	}
	return r
}

// HT returns the Hitting Time recommender (§3.3).
func (s *System) HT() Recommender {
	return s.mustBuild("HT", func(g *graph.Bipartite) Recommender {
		return core.NewHittingTime(g, s.cfg.Walk)
	})
}

// AT returns the Absorbing Time recommender (§4.1, Algorithm 1).
func (s *System) AT() Recommender {
	return s.mustBuild("AT", func(g *graph.Bipartite) Recommender {
		return core.NewAbsorbingTime(g, s.cfg.Walk)
	})
}

// AC1 returns the item-entropy Absorbing Cost recommender (§4.2.2).
func (s *System) AC1() (Recommender, error) {
	return s.build("AC1", func() (replicaFactory, error) {
		ent := entropy.AllItemBased(s.data) // shared: dataset-derived
		return func(g *graph.Bipartite) (Recommender, error) {
			return core.NewAbsorbingCost(g, "AC1", ent, s.costOptions())
		}, nil
	})
}

// AC2 returns the topic-entropy Absorbing Cost recommender (§4.2.3). It
// trains the shared LDA model on first use.
func (s *System) AC2() (Recommender, error) {
	return s.build("AC2", func() (replicaFactory, error) {
		m, err := s.ldaModelLocked()
		if err != nil {
			return nil, fmt.Errorf("longtail: AC2 LDA training: %w", err)
		}
		ent := entropy.AllTopicBased(m) // shared: one LDA model for the fleet
		return func(g *graph.Bipartite) (Recommender, error) {
			return core.NewAbsorbingCost(g, "AC2", ent, s.costOptions())
		}, nil
	})
}

// AC3 returns the symmetric entropy-cost recommender — this library's
// extension of §4.2.1: user→item transitions cost the item's rater
// entropy instead of the constant C, so blockbuster hubs become expensive
// in both directions. Not part of the paper's evaluated suite.
func (s *System) AC3() (Recommender, error) {
	return s.build("AC3", func() (replicaFactory, error) {
		ue := entropy.AllItemBased(s.data)
		ie := entropy.AllItemEntropy(s.data)
		return func(g *graph.Bipartite) (Recommender, error) {
			return core.NewSymmetricAbsorbingCost(g, "AC3", ue, ie, s.costOptions())
		}, nil
	})
}

func (s *System) costOptions() core.CostOptions {
	return core.CostOptions{
		WalkOptions:  s.cfg.Walk,
		UserCost:     s.cfg.UserCost,
		EntropyFloor: s.cfg.EntropyFloor,
	}
}

// DPPR returns the Discounted Personalized PageRank baseline (Eq. 15).
func (s *System) DPPR() Recommender {
	return s.mustBuild("DPPR", func(g *graph.Bipartite) Recommender {
		r, err := core.NewFuncRecommender("DPPR", g, func(u int) ([]float64, error) {
			return pagerank.ForUser(g, u, s.cfg.PageRank)
		})
		if err != nil {
			panic(err) // static arguments; unreachable
		}
		return r
	})
}

// PPR returns the undiscounted Personalized PageRank comparator the paper
// discusses in §5.1.1 — included to demonstrate the popularity bias that
// motivates DPPR's discount.
func (s *System) PPR() Recommender {
	return s.mustBuild("PPR", func(g *graph.Bipartite) Recommender {
		r, err := core.NewFuncRecommender("PPR", g, func(u int) ([]float64, error) {
			items, _ := g.UserItems(u)
			restart := make([]int, 0, len(items)+1)
			for _, i := range items {
				restart = append(restart, g.ItemNode(i))
			}
			if len(restart) == 0 {
				restart = append(restart, g.UserNode(u))
			}
			ppr, err := pagerank.Personalized(g, restart, s.cfg.PageRank)
			if err != nil {
				return nil, err
			}
			return pagerank.ItemScores(g, ppr), nil
		})
		if err != nil {
			panic(err) // static arguments; unreachable
		}
		return r
	})
}

// Katz returns the truncated Katz-index comparator of §3.2, another
// proximity with no popularity discount.
func (s *System) Katz() (Recommender, error) {
	return s.build("Katz", func() (replicaFactory, error) {
		return func(g *graph.Bipartite) (Recommender, error) {
			// Compact first so each shard's chain snapshot includes its
			// pending live writes; like the factor-model baselines it is
			// frozen afterwards.
			g.Compact()
			chain, err := markov.NewChain(g.Adjacency())
			if err != nil {
				return nil, err
			}
			return core.NewFuncRecommender("Katz", g, func(u int) ([]float64, error) {
				scores, err := chain.KatzScores(g.UserNode(u), 0.005, 8)
				if err != nil {
					return nil, err
				}
				out := make([]float64, g.NumItems())
				for i := range out {
					out[i] = scores[g.ItemNode(i)]
				}
				return out, nil
			})
		}, nil
	})
}

// CommuteTime returns the commute-time comparator of §3.2 (Fouss et al.):
// rank items by smallest H(q|j) + H(j|q). The paper argues it is dominated
// by the stationary distribution and so recommends popular items — include
// it to reproduce that argument.
func (s *System) CommuteTime() (Recommender, error) {
	return s.build("CommuteTime", func() (replicaFactory, error) {
		return func(g *graph.Bipartite) (Recommender, error) {
			g.Compact() // include pending live writes in the frozen snapshot
			chain, err := markov.NewChain(g.Adjacency())
			if err != nil {
				return nil, err
			}
			return core.NewFuncRecommender("CommuteTime", g, func(u int) ([]float64, error) {
				ct, err := chain.CommuteTimes(g.UserNode(u))
				if err != nil {
					return nil, err
				}
				out := make([]float64, g.NumItems())
				for i := range out {
					out[i] = -ct[g.ItemNode(i)] // smaller commute time = better
				}
				return out, nil
			})
		}, nil
	})
}

// RWR returns the random-walk-with-restart comparator of §3.2 (Tong et
// al.), another proximity with no popularity discount.
func (s *System) RWR() (Recommender, error) {
	return s.build("RWR", func() (replicaFactory, error) {
		return func(g *graph.Bipartite) (Recommender, error) {
			g.Compact() // include pending live writes in the frozen snapshot
			chain, err := markov.NewChain(g.Adjacency())
			if err != nil {
				return nil, err
			}
			return core.NewFuncRecommender("RWR", g, func(u int) ([]float64, error) {
				scores, err := chain.RWRScores(g.UserNode(u), 0.85, 50, 1e-9)
				if err != nil {
					return nil, err
				}
				out := make([]float64, g.NumItems())
				for i := range out {
					out[i] = scores[g.ItemNode(i)]
				}
				return out, nil
			})
		}, nil
	})
}

// funcBaseline builds the per-shard factory every score-function
// baseline shares: one dataset-trained scoring model (computed once by
// the caller) adapted over each shard's graph for rated-item exclusion.
func funcBaseline(name string, fn core.ScoreFunc) replicaFactory {
	return func(g *graph.Bipartite) (Recommender, error) {
		return core.NewFuncRecommender(name, g, fn)
	}
}

// PureSVD returns the PureSVD baseline (Cremonesi et al. 2010).
func (s *System) PureSVD() (Recommender, error) {
	return s.build("PureSVD", func() (replicaFactory, error) {
		rank := s.cfg.SVDRank
		if maxRank := min(s.data.NumUsers(), s.data.NumItems()); rank > maxRank {
			rank = maxRank
		}
		model, err := svd.NewPureSVD(s.data, svd.Options{Rank: rank, Seed: s.cfg.Seed + 2})
		if err != nil {
			return nil, fmt.Errorf("longtail: PureSVD: %w", err)
		}
		return funcBaseline("PureSVD", func(u int) ([]float64, error) {
			return model.ScoreAll(u, nil), nil
		}), nil
	})
}

// BiasedMF returns the SGD-trained regularized biased matrix factorization
// (the Netflix-Prize workhorse the paper's §2 refers to as "regularized
// Singular Value Decomposition").
func (s *System) BiasedMF() (Recommender, error) {
	return s.build("BiasedMF", func() (replicaFactory, error) {
		opts := s.mfOptions(3)
		model, err := mf.TrainBiasedMF(s.data, opts)
		if err != nil {
			return nil, fmt.Errorf("longtail: BiasedMF: %w", err)
		}
		return funcBaseline("BiasedMF", func(u int) ([]float64, error) {
			return model.ScoreAll(u, nil), nil
		}), nil
	})
}

// SVDPP returns the SVD++ baseline (Koren, KDD 2008) cited by §5.1.1 as
// one of the strong factor models PureSVD beats on top-N tasks.
func (s *System) SVDPP() (Recommender, error) {
	return s.build("SVDPP", func() (replicaFactory, error) {
		opts := s.mfOptions(4)
		model, err := mf.TrainSVDPP(s.data, opts)
		if err != nil {
			return nil, fmt.Errorf("longtail: SVDPP: %w", err)
		}
		return funcBaseline("SVDPP", func(u int) ([]float64, error) {
			return model.ScoreAll(u, nil), nil
		}), nil
	})
}

// AsySVD returns the Asymmetric-SVD baseline (Koren, KDD 2008), the
// item-centric factor model cited alongside SVD++ in §5.1.1.
func (s *System) AsySVD() (Recommender, error) {
	return s.build("AsySVD", func() (replicaFactory, error) {
		opts := s.mfOptions(5)
		model, err := mf.TrainAsySVD(s.data, opts)
		if err != nil {
			return nil, fmt.Errorf("longtail: AsySVD: %w", err)
		}
		return funcBaseline("AsySVD", func(u int) ([]float64, error) {
			return model.ScoreAll(u, nil), nil
		}), nil
	})
}

// mfOptions derives per-model MF options, offsetting the seed so each
// model trains on an independent random stream.
func (s *System) mfOptions(seedOffset int64) mf.Options {
	opts := s.cfg.MF
	if opts.Seed == 0 {
		opts.Seed = s.cfg.Seed + seedOffset
	}
	return opts
}

// LDA returns the LDA recommender baseline (score = Σ_z θ_uz·φ_zi).
func (s *System) LDA() (Recommender, error) {
	return s.build("LDA", func() (replicaFactory, error) {
		m, err := s.ldaModelLocked()
		if err != nil {
			return nil, fmt.Errorf("longtail: LDA training: %w", err)
		}
		return funcBaseline("LDA", func(u int) ([]float64, error) {
			return m.ScoreAll(u, nil), nil
		}), nil
	})
}

// UserKNN returns the user-based kNN baseline (Pearson).
func (s *System) UserKNN() (Recommender, error) {
	return s.build("UserKNN", func() (replicaFactory, error) {
		knn, err := cf.NewUserKNN(s.data, s.cfg.KNNNeighbors, cf.Pearson)
		if err != nil {
			return nil, err
		}
		return funcBaseline("UserKNN", func(u int) ([]float64, error) {
			return knn.ScoreAll(u, nil), nil
		}), nil
	})
}

// ItemKNN returns the item-based kNN baseline (cosine).
func (s *System) ItemKNN() (Recommender, error) {
	return s.build("ItemKNN", func() (replicaFactory, error) {
		knn, err := cf.NewItemKNN(s.data, s.cfg.KNNNeighbors)
		if err != nil {
			return nil, err
		}
		return funcBaseline("ItemKNN", func(u int) ([]float64, error) {
			return knn.ScoreAll(u, nil), nil
		}), nil
	})
}

// AssocRules returns the pairwise association-rule comparator the paper's
// introduction singles out: rules need high support on both sides, so
// recommendations cover only the head of the catalog.
func (s *System) AssocRules() (Recommender, error) {
	return s.build("AssocRules", func() (replicaFactory, error) {
		miner, err := assoc.Mine(s.data, assoc.Options{})
		if err != nil {
			return nil, fmt.Errorf("longtail: AssocRules: %w", err)
		}
		return funcBaseline("AssocRules", func(u int) ([]float64, error) {
			return miner.ScoreAll(u, nil), nil
		}), nil
	})
}

// MostPopular returns the non-personalized popularity baseline.
func (s *System) MostPopular() Recommender {
	return s.mustBuild("MostPopular", func(g *graph.Bipartite) Recommender {
		mp := cf.NewMostPopular(s.data)
		r, err := core.NewFuncRecommender("MostPopular", g, func(u int) ([]float64, error) {
			return mp.ScoreAll(u, nil), nil
		})
		if err != nil {
			panic(err) // unreachable
		}
		return r
	})
}

// PaperSuite returns the seven algorithms of the paper's evaluation in its
// plotting order: AC2, AC1, AT, HT, DPPR, PureSVD, LDA.
func (s *System) PaperSuite() ([]Recommender, error) {
	ac2, err := s.AC2()
	if err != nil {
		return nil, err
	}
	ac1, err := s.AC1()
	if err != nil {
		return nil, err
	}
	psvd, err := s.PureSVD()
	if err != nil {
		return nil, err
	}
	ldaRec, err := s.LDA()
	if err != nil {
		return nil, err
	}
	return []Recommender{ac2, ac1, s.AT(), s.HT(), s.DPPR(), psvd, ldaRec}, nil
}

// algorithmRegistry is the single ordered source of truth for the
// algorithm suite: Algorithm resolution and AlgorithmNames are both
// derived from it, so a new algorithm is added in exactly one place and
// the two can never drift (a parity test in longtail_test.go holds the
// invariant).
var algorithmRegistry = []struct {
	name  string
	build func(*System) (Recommender, error)
}{
	{"HT", func(s *System) (Recommender, error) { return s.HT(), nil }},
	{"AT", func(s *System) (Recommender, error) { return s.AT(), nil }},
	{"AC1", (*System).AC1},
	{"AC2", (*System).AC2},
	{"AC3", (*System).AC3},
	{"DPPR", func(s *System) (Recommender, error) { return s.DPPR(), nil }},
	{"PPR", func(s *System) (Recommender, error) { return s.PPR(), nil }},
	{"Katz", (*System).Katz},
	{"CommuteTime", (*System).CommuteTime},
	{"RWR", (*System).RWR},
	{"PureSVD", (*System).PureSVD},
	{"BiasedMF", (*System).BiasedMF},
	{"SVDPP", (*System).SVDPP},
	{"AsySVD", (*System).AsySVD},
	{"LDA", (*System).LDA},
	{"UserKNN", (*System).UserKNN},
	{"ItemKNN", (*System).ItemKNN},
	{"AssocRules", (*System).AssocRules},
	{"MostPopular", func(s *System) (Recommender, error) { return s.MostPopular(), nil }},
}

// Algorithm resolves a recommender by its paper name (HT, AT, AC1, AC2,
// DPPR, PureSVD, LDA, UserKNN, ItemKNN, MostPopular, ...): every name
// in AlgorithmNames resolves here and nothing else does.
func (s *System) Algorithm(name string) (Recommender, error) {
	for _, entry := range algorithmRegistry {
		if entry.name == name {
			return entry.build(s)
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
	// constructors (LDA training for AC2, SGD for the MF baselines) must
	// not be triggered by a request that cannot be served anyway.
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
// RecommendRequests: ctx fills a request that carries none, a phantom
// user (see phantomUser) never reaches the engines, and a cold user takes
// the popularity fallback when the request allows it.
func (s *System) serve(ctx context.Context, rec Recommender, req Request) (Response, error) {
	if req.Ctx == nil {
		req.Ctx = ctx
	}
	var (
		resp Response
		err  error
	)
	if s.phantomUser(req.User) {
		// In the fleet universe but absent from the home shard, which
		// would reject it as out of range: a cold user by construction (no
		// ratings anywhere) — same outcome the unsharded stack gives a
		// dense-filled, rating-less user.
		err = fmt.Errorf("longtail: user %d: %w", req.User, core.ErrColdUser)
	} else if resp, err = rec.Recommend(req, nil); err == nil {
		return resp, nil
	}
	if errors.Is(err, core.ErrColdUser) && req.AllowFallback {
		return s.fallbackResponse(req, rec.Name()), nil
	}
	return Response{}, err
}

// phantomUser reports whether user id u is inside the fleet universe but
// beyond its own home shard's graph. Auto-grow admissions keep each id
// space dense per shard, so a far-ahead write dense-fills the ids
// between only on the WRITING user's shard; an id in that gap routes to
// a home shard that has never seen it. Such a user has no ratings
// anywhere in the fleet, so the serving layer treats it exactly like the
// unsharded stack treats a dense-filled, rating-less user: cold. Always
// false with one shard.
func (s *System) phantomUser(u int) bool {
	if u < 0 || s.fleet.NumShards() == 1 {
		return false
	}
	if u < s.fleet.GraphFor(u).NumUsers() {
		return false
	}
	numUsers, _ := s.fleet.Universe()
	return u < numUsers
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
// deterministic live-popularity list of the user's serving shard minus
// the user's rated items, passed through the request's own option
// filters (so a long-tail-only or candidate-scoped request stays
// long-tail-only or candidate-scoped even when degraded). The Epoch is
// the serving shard's, matching every personalized response.
func (s *System) fallbackResponse(req Request, algo string) Response {
	k := req.K
	if k < 0 {
		k = 0
	}
	g := s.fleet.GraphFor(req.User)
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
// it runs on the user's serving shard, the same graph their
// recommendations walk.
func (s *System) Explain(u, candidate int) ([]Anchor, error) {
	return core.ExplainAbsorption(s.fleet.GraphFor(u), u, candidate, s.cfg.Walk)
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

// SaveGraph writes one live serving graph — including pending overlay
// writes and any users/items admitted through the auto-grow path, with
// the write epoch preserved — as a versioned, checksummed binary
// container (see internal/persist). On a sharded System each shard's
// graph holds only the live writes routed to it: snapshot the whole
// fleet by saving System.ShardGraph(i) for every shard, not just
// System.Graph() (shard 0).
func SaveGraph(w io.Writer, g *graph.Bipartite) error { return persist.SaveGraph(w, g) }

// LoadGraph reads a graph container written by SaveGraph.
func LoadGraph(r io.Reader) (*graph.Bipartite, error) { return persist.LoadGraph(r) }

// SaveGraphFile writes a graph container to path.
func SaveGraphFile(path string, g *graph.Bipartite) error {
	return persist.SaveFile(path, func(w io.Writer) error { return persist.SaveGraph(w, g) })
}

// LoadGraphFile reads a graph container from path.
func LoadGraphFile(path string) (*graph.Bipartite, error) {
	var g *graph.Bipartite
	err := persist.LoadFile(path, func(r io.Reader) error {
		var lerr error
		g, lerr = persist.LoadGraph(r)
		return lerr
	})
	return g, err
}

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
