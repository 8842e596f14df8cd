// Package server exposes a trained recommendation System over HTTP/JSON —
// the online half of a production deployment (the offline half being
// internal/persist model artifacts). Endpoints:
//
//	GET  /v1/health                     liveness probe
//	GET  /v1/stats                      corpus statistics (§5.1.2 view),
//	                                    fleet-wide epoch and cache counters
//	                                    plus a per-shard "shards" breakdown
//	                                    (epoch, cache, live universe per
//	                                    serving replica; length 1 when
//	                                    unsharded)
//	GET  /v1/algorithms                 available algorithm names
//	GET  /v1/recommend?user=&algo=&k=   top-k recommendations; per-request
//	                                    options: &exclude=i1,i2 (extra
//	                                    exclusions), &candidates=i1,i2
//	                                    (restrict to a slate),
//	                                    &long_tail_only=P (popularity-
//	                                    percentile cutoff in (0,1]),
//	                                    &fallback=false (hard 404 for cold
//	                                    users). The response envelope
//	                                    reports fallback, epoch, cache_hit.
//	GET  /v1/recommend/batch?users=&algo=&k=&parallelism=
//	                                    top-k lists for many users, scored
//	                                    concurrently across cores; accepts
//	                                    the same option params
//
// Both recommendation endpoints propagate the client's request context
// into the walk engine — a dropped connection or Options.RequestTimeout
// cancels an in-flight walk between τ sweeps (499/504).
//
//	POST /v1/ratings                    live rating ingest: body
//	                                    {"user":u,"item":i,"score":s}
//	                                    upserts one edge, bumps the graph
//	                                    epoch and thereby invalidates
//	                                    cached results
//	GET  /v1/explain?user=&item=        absorption-probability explanation
//	GET  /v1/users/{id}                 user profile: ratings, degree
//	GET  /v1/items/{id}                 item profile: popularity, tail membership
//	GET  /v1/items/{id}/similar?k=      item-to-item cosine neighbors
//	GET  /v1/metrics                    request counters and mean latency
//
// Live writes land in the serving graph (and are visible to the walk
// recommenders immediately). When the Source shards its serving across
// user-partitioned replicas (longtail.Config.ShardCount), both the
// recommendation and ratings handlers route transparently — the Source
// owns the user→shard assignment — and a write invalidates only its own
// shard's cached results. When the Source is configured for auto-grow,
// POST /v1/ratings also accepts user and item ids the system has never
// seen — cold-start traffic grows the universe instead of 404ing; only
// negative ids, and ids more than graph.MaxDenseAdmissions past the
// universe edge, are rejected (404, with the cap embedded in the error
// text). GET /v1/recommend for a user with no history degrades to a
// deterministic popularity fallback (marked "fallback": true) rather
// than failing. The dataset-backed views (/v1/users, /v1/items, corpus
// counts) describe the corpus the system was built from and refresh on
// snapshot reload.
//
// Errors are JSON {"error": "..."} with conventional status codes; every
// handler is wrapped in panic recovery so one bad request cannot take the
// process down.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"longtailrec/internal/cf"
	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
)

// Source is the recommendation capability the server fronts.
// *longtail.System satisfies it. Both recommendation endpoints go through
// one query path: Recommend per request, RecommendRequests the same
// function fanned across workers.
type Source interface {
	// Algorithms lists the accepted names.
	Algorithms() []string
	// Recommend serves one context-aware Request through the named
	// algorithm: per-request options honored, cold users degraded to the
	// popularity fallback when the request allows it. An unknown name
	// fails with an error wrapping core.ErrUnknownAlgorithm.
	Recommend(ctx context.Context, algo string, req core.Request) (core.Response, error)
	// RecommendRequests serves many Requests in one call — each exactly
	// as Recommend would, across up to parallelism workers, honoring each
	// request's context. Cold users yield a zero Response (or a fallback
	// one when allowed).
	RecommendRequests(ctx context.Context, algo string, reqs []core.Request, parallelism int) ([]core.Response, error)
	// Data returns the training dataset.
	Data() *dataset.Dataset
	// Explain attributes a would-be recommendation over the user's rated
	// items.
	Explain(u, candidate int) ([]core.Anchor, error)
	// SimilarItems returns the item-to-item neighbors of an item.
	SimilarItems(item, k int) ([]cf.SimilarItem, error)
	// ApplyRating ingests one live rating write (insert or re-rate) into
	// the serving graph, reporting whether a new edge was created and the
	// graph epoch after the write. Sources configured for auto-grow admit
	// unseen user/item ids here.
	ApplyRating(user, item int, score float64) (added bool, epoch uint64, err error)
	// ServingStats reports the live-serving state: graph epoch, pending
	// delta-overlay writes and result-cache counters.
	ServingStats() core.ServingStats
	// Universe returns the live serving universe (users, items) including
	// ids admitted through ApplyRating — the bound the recommendation
	// endpoints validate against, as opposed to the Data() snapshot.
	Universe() (numUsers, numItems int)
	// LiveItemPopularity returns each item's live rater count, covering
	// items admitted after startup — the fleet-wide view (a catalog scan
	// across the shards when serving is sharded). Read-only: the slice
	// may be shared with the graph and with other callers.
	LiveItemPopularity() []int
	// LiveItemPopularityFor returns the live rater counts as seen by the
	// given user's serving shard: the view consistent with that user's
	// recommendations — what the single-request render path calls once
	// per request, so it must cost nothing between writes (the graph
	// memoises the vector). Read-only, like LiveItemPopularity.
	LiveItemPopularityFor(user int) []int
	// PopularItems returns the k most-popular items of the live graph the
	// user has not rated, deterministically ordered — the degraded
	// response when an algorithm cannot anchor on the user.
	PopularItems(user, k int) []core.Scored
}

// Options configure the server.
type Options struct {
	// Addr is the listen address; "" means ":8080".
	Addr string
	// DefaultAlgorithm serves /v1/recommend when ?algo= is absent;
	// "" means "AC2" (the paper's best variant). It must be one of the
	// Source's Algorithms.
	DefaultAlgorithm string
	// MaxK caps the ?k= parameter; <= 0 means 100.
	MaxK int
	// MaxBatchUsers caps the ?users= list of /v1/recommend/batch;
	// <= 0 means 500.
	MaxBatchUsers int
	// TailShare defines the long-tail split reported by /v1/items;
	// <= 0 means 0.20 (the 80/20 rule).
	TailShare float64
	// Logger receives request logs and panics; nil means the standard
	// logger.
	Logger *log.Logger
	// ShutdownTimeout bounds graceful Shutdown; <= 0 means 5s.
	ShutdownTimeout time.Duration
	// RequestTimeout, when > 0, deadlines every recommendation query: the
	// handler derives a context.WithTimeout from the request context, so
	// a slow walk is cancelled mid-sweep instead of holding the
	// connection. <= 0 means no server-side deadline (the client's own
	// cancellation still propagates).
	RequestTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = ":8080"
	}
	if o.DefaultAlgorithm == "" {
		o.DefaultAlgorithm = "AC2"
	}
	if o.MaxK <= 0 {
		o.MaxK = 100
	}
	if o.MaxBatchUsers <= 0 {
		o.MaxBatchUsers = 500
	}
	if o.TailShare <= 0 {
		o.TailShare = 0.20
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	if o.ShutdownTimeout <= 0 {
		o.ShutdownTimeout = 5 * time.Second
	}
	return o
}

// Server is a configured HTTP front end over a Source.
type Server struct {
	src     Source
	opts    Options
	tail    map[int]struct{} // long-tail item set, computed once
	mux     *http.ServeMux
	http    *http.Server
	metrics *metrics
}

// New builds a Server. The Source must already be trained/indexed; New
// precomputes the long-tail split so /v1/items answers in O(1). A
// DefaultAlgorithm the Source does not list is refused: the server would
// advertise it and fail every request that names no algorithm. The check
// is by name only — nothing is resolved or trained.
func New(src Source, opts Options) (*Server, error) {
	if src == nil {
		return nil, fmt.Errorf("server: nil source")
	}
	opts = opts.withDefaults()
	if served := src.Algorithms(); !slices.Contains(served, opts.DefaultAlgorithm) {
		return nil, fmt.Errorf("server: default algorithm %q is not served (want one of %s)",
			opts.DefaultAlgorithm, strings.Join(served, ", "))
	}
	s := &Server{
		src:     src,
		opts:    opts,
		tail:    src.Data().LongTailItems(opts.TailShare),
		mux:     http.NewServeMux(),
		metrics: newMetrics(),
	}
	// Every route gets its metrics row here, so the table is complete (and
	// from then on read-only) before the first request.
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, h)
		s.metrics.byRoute[pattern] = &endpointStats{}
	}
	handle("GET /v1/health", s.handleHealth)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /v1/algorithms", s.handleAlgorithms)
	handle("GET /v1/recommend", s.handleRecommend)
	handle("GET /v1/recommend/batch", s.handleRecommendBatch)
	handle("POST /v1/ratings", s.handleAddRating)
	handle("GET /v1/explain", s.handleExplain)
	handle("GET /v1/users/{id}", s.handleUser)
	handle("GET /v1/items/{id}", s.handleItem)
	handle("GET /v1/items/{id}/similar", s.handleSimilar)
	handle("GET /v1/metrics", s.handleMetrics)
	s.http = &http.Server{
		Addr:              opts.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// Handler returns the full middleware-wrapped handler, usable directly in
// tests via httptest.
func (s *Server) Handler() http.Handler {
	return s.recoverPanics(s.logRequests(s.mux))
}

// ListenAndServe serves until Shutdown or a listener error. Returns nil on
// graceful shutdown.
func (s *Server) ListenAndServe() error {
	err := s.http.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in-flight requests, bounded by Options.ShutdownTimeout.
func (s *Server) Shutdown(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, s.opts.ShutdownTimeout)
	defer cancel()
	return s.http.Shutdown(ctx)
}

// --- middleware ---

func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		// Count under the route ServeMux matched (it sets r.Pattern on this
		// same request, e.g. "GET /v1/users/{id}"; "" when none matched),
		// never under anything the client chose.
		s.metrics.observe(r.Pattern, sw.status, elapsed)
		s.opts.Logger.Printf("%s %s -> %d (%s)", r.Method, r.URL.Path, sw.status, elapsed.Round(time.Microsecond))
	})
}

func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.opts.Logger.Printf("panic serving %s %s: %v", r.Method, r.URL.Path, p)
				writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// statusWriter records the status code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// --- JSON plumbing ---

// bodyPool holds the buffers response bodies are built in. A body is
// complete before its status line is written, so a value that cannot be
// encoded is reported as a 500 instead of a 200 with nothing after it.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeRecommend is writeJSON for the one body with an append encoder
// (encode.go): same bytes, same failure handling, no reflection.
func writeRecommend(w http.ResponseWriter, resp *RecommendResponse) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	body, err := appendRecommendResponse(buf.AvailableBuffer(), resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	buf.Write(body) // keeps whatever the append grew for the next request
	writeBody(w, http.StatusOK, buf.Bytes())
}

// writeBody sends one finished JSON body in a single Write, which lets
// net/http state its Content-Length (it does for any body that fits its
// 2 KiB buffer, as before) without the handler allocating the header.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A write fails only on a dead connection, which there is no way to
	// report anyway.
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// The query helpers read a request's parameters from q, parsed once per
// request by the handler (r.URL.Query() re-parses the raw query on every
// call).

// queryInt parses an integer query parameter, with def used when absent
// (def < 0 marks the parameter required).
func queryInt(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		if def < 0 {
			return 0, fmt.Errorf("missing required parameter %q", name)
		}
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not an integer", name, raw)
	}
	return v, nil
}

// queryFloat parses a float query parameter, def used when absent.
func queryFloat(q url.Values, name string, def float64) (float64, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not a number", name, raw)
	}
	return v, nil
}

// queryBool parses a boolean query parameter, def used when absent.
func queryBool(q url.Values, name string, def bool) (bool, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("parameter %q: %q is not a boolean", name, raw)
	}
	return v, nil
}

// queryIntList parses a comma-separated integer list parameter. Absent
// means nil; an explicitly empty value ("candidates=") means an empty
// non-nil list, so clients can express an empty candidate slate.
func queryIntList(q url.Values, name string) ([]int, error) {
	if !q.Has(name) {
		return nil, nil
	}
	raw := q.Get(name)
	if raw == "" {
		return []int{}, nil
	}
	fields := strings.Split(raw, ",")
	out := make([]int, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %q is not an integer", name, f)
		}
		// Domain validation (e.g. no negative ids) is core's:
		// Request.Validate rejects it as ErrInvalidOptions → 400.
		out = append(out, v)
	}
	return out, nil
}

// errStatus maps a recommendation or live-write error to an HTTP status:
// cold users and out-of-range (including auto-grow-rejected) ids are 404,
// duplicate-edge conflicts are 409, malformed inputs are 400 — none of
// these client-caused failures may surface as a 500.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// The server-side RequestTimeout (or the client's own deadline)
		// expired mid-query.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// 499 is the de-facto "client closed request" status (nginx);
		// the client is usually gone, but the log should not say 500.
		return 499
	case errors.Is(err, core.ErrInvalidOptions):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrColdUser):
		return http.StatusNotFound
	case errors.Is(err, core.ErrUserOutOfRange):
		return http.StatusNotFound
	case errors.Is(err, core.ErrUnknownAlgorithm):
		return http.StatusBadRequest
	case strings.Contains(err.Error(), "must be positive"):
		return http.StatusBadRequest
	case strings.Contains(err.Error(), "already exists"):
		return http.StatusConflict
	case strings.Contains(err.Error(), "does not exist"):
		return http.StatusNotFound
	case strings.Contains(err.Error(), "out of range"):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}
