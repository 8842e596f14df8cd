// Endpoint handlers and their response shapes.

package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"

	"longtailrec/internal/cache"
	"longtailrec/internal/core"
)

// HealthResponse is the /v1/health body.
type HealthResponse struct {
	Status string `json:"status"`
}

// healthOK is boxed once: boxing a HealthResponse per call allocates.
var healthOK any = HealthResponse{Status: "ok"}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthOK)
}

// CacheStatsResponse is the result-cache section of /v1/stats: the counters
// behind the hit-rate vs recompute-cost tradeoff PERFORMANCE.md documents.
type CacheStatsResponse struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Shared    uint64 `json:"shared"` // singleflight piggybacks
	Evictions uint64 `json:"evictions"`
	// Precision-invalidation counters: hits proven fresh by subgraph
	// fingerprint despite epoch movement, entries dropped on fingerprint
	// evidence, and rejects caused by write-journal overflow.
	FingerprintHits    uint64  `json:"fingerprint_hits"`
	FingerprintRejects uint64  `json:"fingerprint_rejects"`
	JournalOverflows   uint64  `json:"journal_overflows"`
	Size               int     `json:"size"`
	Capacity           int     `json:"capacity"`
	HitRate            float64 `json:"hit_rate"` // (hits+shared) / lookups
}

// StatsResponse is the /v1/stats body — the §5.1.2 corpus description plus
// the live-serving state: epoch, pending writes and cache counters.
type StatsResponse struct {
	NumUsers         int     `json:"num_users"`
	NumItems         int     `json:"num_items"`
	NumRatings       int     `json:"num_ratings"`
	Density          float64 `json:"density"`
	MeanScore        float64 `json:"mean_score"`
	TailItemFraction float64 `json:"tail_item_fraction"`

	// LiveNumUsers/LiveNumItems are the serving universe sizes, which
	// grow past the corpus counts above as unseen users and items arrive
	// through the auto-grow write path.
	LiveNumUsers  int                 `json:"live_num_users"`
	LiveNumItems  int                 `json:"live_num_items"`
	Epoch         uint64              `json:"epoch"` // total accepted writes
	PendingWrites int                 `json:"pending_writes"`
	Cache         *CacheStatsResponse `json:"cache,omitempty"` // nil when disabled

	// Durability: where the write-ahead log stands. WALEnabled is false
	// (and the other three zero) when the server runs without -wal-dir.
	// DurableSeq is the next WAL sequence to assign — every accepted
	// write below it is fsync'd. PendingBatch is how many writes sit in
	// the in-flight group-commit batch, acknowledged to no one yet.
	// LastCheckpointEpoch is the epoch the most recent checkpoint
	// captured (zero before the first).
	WALEnabled          bool   `json:"wal_enabled"`
	DurableSeq          uint64 `json:"durable_seq"`
	PendingBatch        int    `json:"pending_batch"`
	LastCheckpointEpoch uint64 `json:"last_checkpoint_epoch"`
}

// cacheStatsResponse renders cache counters with their derived hit rate.
func cacheStatsResponse(cs cache.Stats) *CacheStatsResponse {
	rate := 0.0
	if lookups := cs.Hits + cs.Misses + cs.Shared; lookups > 0 {
		rate = float64(cs.Hits+cs.Shared) / float64(lookups)
	}
	return &CacheStatsResponse{
		Hits:               cs.Hits,
		Misses:             cs.Misses,
		Shared:             cs.Shared,
		Evictions:          cs.Evictions,
		FingerprintHits:    cs.FingerprintHits,
		FingerprintRejects: cs.FingerprintRejects,
		JournalOverflows:   cs.JournalOverflows,
		Size:               cs.Size,
		Capacity:           cs.Capacity,
		HitRate:            rate,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.stats
	serving := s.src.ServingStats()
	liveUsers, liveItems := s.src.Universe()
	resp := StatsResponse{
		NumUsers:         st.NumUsers,
		NumItems:         st.NumItems,
		NumRatings:       st.NumRatings,
		Density:          st.Density,
		MeanScore:        st.MeanScore,
		TailItemFraction: st.TailItemFraction,
		LiveNumUsers:     liveUsers,
		LiveNumItems:     liveItems,
		Epoch:            serving.Epoch,
		PendingWrites:    serving.PendingWrites,

		WALEnabled:          serving.Durability.Enabled,
		DurableSeq:          serving.Durability.DurableSeq,
		PendingBatch:        serving.Durability.PendingBatch,
		LastCheckpointEpoch: serving.Durability.LastCheckpointEpoch,
	}
	if serving.CacheEnabled {
		resp.Cache = cacheStatsResponse(serving.Cache)
	}
	writeJSON(w, http.StatusOK, resp)
}

// RatingRequest is the POST /v1/ratings body: one live rating event.
type RatingRequest struct {
	User  int     `json:"user"`
	Item  int     `json:"item"`
	Score float64 `json:"score"`
}

// RatingResponse acknowledges a live rating write. Added distinguishes a
// new edge (201) from a re-rate (200); Epoch is the graph epoch after the
// write — cached results from earlier epochs are no longer served.
type RatingResponse struct {
	User  int     `json:"user"`
	Item  int     `json:"item"`
	Score float64 `json:"score"`
	Added bool    `json:"added"`
	Epoch uint64  `json:"epoch"`
}

// handleAddRating ingests one rating through the live write path: the edge
// lands in the graph's delta overlay, the epoch bumps, and every cached
// recommendation computed before it becomes unreachable.
func (s *Server) handleAddRating(w http.ResponseWriter, r *http.Request) {
	var req RatingRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid rating body: %v", err)
		return
	}
	added, epoch, err := s.src.ApplyRating(req.User, req.Item, req.Score)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	status := http.StatusOK
	if added {
		status = http.StatusCreated
	}
	writeJSON(w, status, RatingResponse{
		User:  req.User,
		Item:  req.Item,
		Score: req.Score,
		Added: added,
		Epoch: epoch,
	})
}

// AlgorithmsResponse is the /v1/algorithms body.
type AlgorithmsResponse struct {
	Algorithms []string `json:"algorithms"`
	Default    string   `json:"default"`
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, AlgorithmsResponse{
		Algorithms: s.src.Algorithms(),
		Default:    s.opts.DefaultAlgorithm,
	})
}

// RecommendedItem is one entry of a recommendation list.
type RecommendedItem struct {
	Item       int     `json:"item"`
	Score      float64 `json:"score"`
	Popularity int     `json:"popularity"`
	LongTail   bool    `json:"long_tail"`
}

// RecommendResponse is the /v1/recommend body — the full Response
// envelope. Fallback marks a degraded response: the user has no rating
// history the algorithm can anchor on, so the items are the
// deterministic live-popularity list instead of a personalized ranking.
// Epoch is the graph epoch the result was computed (or cached) at, and
// CacheHit reports whether the serving cache answered.
type RecommendResponse struct {
	User      int               `json:"user"`
	Algorithm string            `json:"algorithm"`
	Fallback  bool              `json:"fallback,omitempty"`
	Epoch     uint64            `json:"epoch"`
	CacheHit  bool              `json:"cache_hit"`
	Items     []RecommendedItem `json:"items"`
}

// parseRequestOptions reads the shared per-request option parameters —
// exclude, candidates, long_tail_only, fallback — into a core.Request
// (User/K/Ctx left for the caller). A non-nil error is a client error.
func parseRequestOptions(q url.Values, fallbackDefault bool) (core.Request, error) {
	var req core.Request
	exclude, err := queryIntList(q, "exclude")
	if err != nil {
		return req, err
	}
	candidates, err := queryIntList(q, "candidates")
	if err != nil {
		return req, err
	}
	longTail, err := queryFloat(q, "long_tail_only", 0)
	if err != nil {
		return req, err
	}
	// Range (and NaN) validation of long_tail_only is core's:
	// Request.validate rejects it as ErrInvalidOptions, which errStatus
	// maps to 400 — one definition of the accepted range.
	allowFallback, err := queryBool(q, "fallback", fallbackDefault)
	if err != nil {
		return req, err
	}
	req.ExcludeItems = exclude
	req.CandidateItems = candidates
	req.LongTailOnly = longTail
	req.AllowFallback = allowFallback
	return req, nil
}

// queryCtx derives the context every recommendation query runs under:
// the client's request context (so a dropped connection cancels the
// walk), bounded by Options.RequestTimeout when configured.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	}
	return r.Context(), func() {}
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := queryInt(q, "user", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := queryInt(q, "k", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if k <= 0 || k > s.opts.MaxK {
		writeError(w, http.StatusBadRequest, "k must be in [1,%d], got %d", s.opts.MaxK, k)
		return
	}
	// Fallback defaults on: cold-start traffic gets the deterministic
	// live-popularity list (minus whatever the user HAS rated) instead
	// of a failure; ?fallback=false restores the hard 404.
	req, err := parseRequestOptions(q, true)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.User, req.K = user, k
	algo := q.Get("algo")
	if algo == "" {
		algo = s.opts.DefaultAlgorithm
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	resp, err := s.src.Recommend(ctx, algo, req)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeRecommend(w, &RecommendResponse{
		User:      user,
		Algorithm: resp.Algo,
		Fallback:  resp.Fallback,
		Epoch:     resp.Epoch,
		CacheHit:  resp.CacheHit,
		// Decorate with the live popularity (memoised between writes).
		Items: s.renderItems(resp.Items, s.src.LiveItemPopularityFor(user)),
	})
}

// BatchEntry is one user's slice of a batch recommendation response. Cold
// users (no rated items) are served with an empty list, or the
// popularity fallback (marked) when ?fallback=true.
type BatchEntry struct {
	User     int               `json:"user"`
	Fallback bool              `json:"fallback,omitempty"`
	Items    []RecommendedItem `json:"items"`
}

// RecommendBatchResponse is the /v1/recommend/batch body.
type RecommendBatchResponse struct {
	Algorithm string       `json:"algorithm"`
	Results   []BatchEntry `json:"results"`
}

// handleRecommendBatch serves ?users=1,2,3 in one call: one Request per
// user through Source.RecommendRequests, which runs the single-request
// path across up to ?parallelism= workers (core.ServeBatch).
func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rawUsers := q.Get("users")
	if rawUsers == "" {
		writeError(w, http.StatusBadRequest, "missing required parameter %q", "users")
		return
	}
	fields := strings.Split(rawUsers, ",")
	if len(fields) > s.opts.MaxBatchUsers {
		writeError(w, http.StatusBadRequest, "batch of %d users exceeds limit %d", len(fields), s.opts.MaxBatchUsers)
		return
	}
	numUsers, _ := s.src.Universe()
	users := make([]int, 0, len(fields))
	for _, f := range fields {
		u, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			writeError(w, http.StatusBadRequest, "parameter %q: %q is not an integer", "users", f)
			return
		}
		if u < 0 || u >= numUsers {
			writeError(w, http.StatusNotFound, "user %d out of range [0,%d)", u, numUsers)
			return
		}
		users = append(users, u)
	}
	k, err := queryInt(q, "k", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if k <= 0 || k > s.opts.MaxK {
		writeError(w, http.StatusBadRequest, "k must be in [1,%d], got %d", s.opts.MaxK, k)
		return
	}
	parallelism, err := queryInt(q, "parallelism", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Cap the client-supplied worker count at the core count: beyond it the
	// CPU-bound engine gains nothing, and each extra worker pins a
	// graph-sized scratch from the pool.
	if maxPar := runtime.GOMAXPROCS(0); parallelism > maxPar {
		parallelism = maxPar
	}
	// The same option params as /v1/recommend apply to every user of the
	// batch. Fallback defaults off here, preserving the historical
	// batch contract (cold users get empty lists).
	template, err := parseRequestOptions(q, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	algo := q.Get("algo")
	if algo == "" {
		algo = s.opts.DefaultAlgorithm
	}
	reqs := make([]core.Request, len(users))
	for i, u := range users {
		req := template
		req.User, req.K = u, k
		reqs[i] = req
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	resps, err := s.src.RecommendRequests(ctx, algo, reqs, parallelism)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	// One popularity vector decorates the whole batch.
	pop := s.src.LiveItemPopularityFor(users[0])
	results := make([]BatchEntry, len(users))
	for i, u := range users {
		results[i] = BatchEntry{User: u, Fallback: resps[i].Fallback, Items: s.renderItems(resps[i].Items, pop)}
	}
	writeJSON(w, http.StatusOK, RecommendBatchResponse{Algorithm: algo, Results: results})
}

// renderItems decorates a scored list with popularity and long-tail
// membership — the shared response shape of the single and batch
// recommendation endpoints. pop is the live catalog popularity vector,
// computed once per request by the caller. Items past the ends of the
// startup snapshots (admitted live) are the nichest the catalog has:
// they render with their live popularity (0 if a write races) and
// long-tail membership true.
func (s *Server) renderItems(scored []core.Scored, pop []int) []RecommendedItem {
	snapItems := s.src.Data().NumItems()
	items := make([]RecommendedItem, len(scored))
	for i, sc := range scored {
		_, tail := s.tail[sc.Item]
		p := 0
		if sc.Item < len(pop) {
			p = pop[sc.Item]
		}
		items[i] = RecommendedItem{
			Item:       sc.Item,
			Score:      sc.Score,
			Popularity: p,
			LongTail:   tail || sc.Item >= snapItems,
		}
	}
	return items
}

// ExplainAnchor attributes a share of the recommendation to a rated item.
type ExplainAnchor struct {
	Item        int     `json:"item"`
	Probability float64 `json:"probability"`
}

// ExplainResponse is the /v1/explain body.
type ExplainResponse struct {
	User    int             `json:"user"`
	Item    int             `json:"item"`
	Anchors []ExplainAnchor `json:"anchors"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := queryInt(q, "user", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	item, err := queryInt(q, "item", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	anchors, err := s.src.Explain(user, item)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	out := make([]ExplainAnchor, len(anchors))
	for i, a := range anchors {
		out[i] = ExplainAnchor{Item: a.Item, Probability: a.Probability}
	}
	writeJSON(w, http.StatusOK, ExplainResponse{User: user, Item: item, Anchors: out})
}

// UserRating is one (item, score) pair of a user profile.
type UserRating struct {
	Item  int     `json:"item"`
	Score float64 `json:"score"`
}

// UserResponse is the /v1/users/{id} body.
type UserResponse struct {
	User    int          `json:"user"`
	Degree  int          `json:"degree"`
	Ratings []UserRating `json:"ratings"`
}

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "user id %q is not an integer", r.PathValue("id"))
		return
	}
	d := s.src.Data()
	if id < 0 || id >= d.NumUsers() {
		writeError(w, http.StatusNotFound, "user %d out of range [0,%d)", id, d.NumUsers())
		return
	}
	rs := d.UserRatings(id)
	ratings := make([]UserRating, len(rs))
	for i, rt := range rs {
		ratings[i] = UserRating{Item: rt.Item, Score: rt.Score}
	}
	writeJSON(w, http.StatusOK, UserResponse{User: id, Degree: len(ratings), Ratings: ratings})
}

// SimilarEntry is one neighbor in a /v1/items/{id}/similar response.
type SimilarEntry struct {
	Item       int     `json:"item"`
	Similarity float64 `json:"similarity"`
	Popularity int     `json:"popularity"`
	LongTail   bool    `json:"long_tail"`
}

// SimilarResponse is the /v1/items/{id}/similar body.
type SimilarResponse struct {
	Item    int            `json:"item"`
	Similar []SimilarEntry `json:"similar"`
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "item id %q is not an integer", r.PathValue("id"))
		return
	}
	k, err := queryInt(r.URL.Query(), "k", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if k <= 0 || k > s.opts.MaxK {
		writeError(w, http.StatusBadRequest, "k must be in [1,%d], got %d", s.opts.MaxK, k)
		return
	}
	sims, err := s.src.SimilarItems(id, k)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	d := s.src.Data()
	out := make([]SimilarEntry, len(sims))
	for i, sim := range sims {
		_, tail := s.tail[sim.Item]
		out[i] = SimilarEntry{
			Item:       sim.Item,
			Similarity: sim.Similarity,
			Popularity: d.ItemDegree(sim.Item),
			LongTail:   tail,
		}
	}
	writeJSON(w, http.StatusOK, SimilarResponse{Item: id, Similar: out})
}

// ItemResponse is the /v1/items/{id} body.
type ItemResponse struct {
	Item       int     `json:"item"`
	Popularity int     `json:"popularity"`
	MeanScore  float64 `json:"mean_score"`
	LongTail   bool    `json:"long_tail"`
}

func (s *Server) handleItem(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "item id %q is not an integer", r.PathValue("id"))
		return
	}
	d := s.src.Data()
	if id < 0 || id >= d.NumItems() {
		writeError(w, http.StatusNotFound, "item %d out of range [0,%d)", id, d.NumItems())
		return
	}
	rs := d.ItemRatings(id)
	mean := 0.0
	for _, rt := range rs {
		mean += rt.Score
	}
	if len(rs) > 0 {
		mean /= float64(len(rs))
	}
	_, tail := s.tail[id]
	writeJSON(w, http.StatusOK, ItemResponse{
		Item:       id,
		Popularity: len(rs),
		MeanScore:  mean,
		LongTail:   tail,
	})
}
