// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (run `go test -bench=. -benchmem`), plus per-query
// microbenchmarks for each algorithm. The experiment benchmarks print the
// paper-style tables on their first iteration so a bench run doubles as a
// results regeneration (cmd/ltr-bench runs the same experiments at larger
// scale).
package longtail_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"longtailrec"
	"longtailrec/internal/core"
	"longtailrec/internal/experiments"
	"longtailrec/internal/graph"
	"longtailrec/internal/server"
)

// benchScale keeps every experiment benchmark in the seconds range.
func benchScale() experiments.Scale {
	return experiments.Scale{
		TestRatings: 40,
		Negatives:   200,
		PanelUsers:  30,
		Evaluators:  15,
		MaxN:        50,
		ListSize:    10,
	}
}

var (
	benchMu   sync.Mutex
	benchEnvs = map[string]*experiments.Env{}
)

// benchEnv lazily builds and caches the per-dataset environment so env
// construction (corpus generation, LDA/SVD training) is excluded from
// every benchmark's measured loop.
func benchEnv(b *testing.B, kind string) *experiments.Env {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if e, ok := benchEnvs[kind]; ok {
		return e
	}
	e, err := experiments.NewEnv(kind, benchScale(), 42)
	if err != nil {
		b.Fatal(err)
	}
	// Force model training (LDA for AC2, SVD) outside the timer.
	if _, err := e.Suite(); err != nil {
		b.Fatal(err)
	}
	benchEnvs[kind] = e
	return e
}

// printOnce emits the experiment table on the first benchmark iteration.
func printOnce(i int, text string) {
	if i == 0 {
		fmt.Print(text)
	}
}

// BenchmarkFigure2 regenerates the §3.3 worked example (exact hitting
// times on the Figure 2 graph).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, res.Text)
	}
}

// BenchmarkTable1 regenerates the LDA topic readout.
func BenchmarkTable1(b *testing.B) {
	env := benchEnv(b, "movielens")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(env, 2, 5)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, res.Text)
	}
}

// BenchmarkFigure5a regenerates Recall@N on the MovieLens-shaped corpus.
func BenchmarkFigure5a(b *testing.B) {
	benchRecall(b, "movielens")
}

// BenchmarkFigure5b regenerates Recall@N on the Douban-shaped corpus.
func BenchmarkFigure5b(b *testing.B) {
	benchRecall(b, "douban")
}

func benchRecall(b *testing.B, kind string) {
	env := benchEnv(b, kind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(env)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, res.Text)
	}
}

// BenchmarkFigure6a regenerates Popularity@N on the Douban-shaped corpus
// (with Tables 2/3/5 as by-products of the same panel).
func BenchmarkFigure6a(b *testing.B) {
	benchLists(b, "douban", true)
}

// BenchmarkFigure6b regenerates Popularity@N on the MovieLens-shaped corpus.
func BenchmarkFigure6b(b *testing.B) {
	benchLists(b, "movielens", true)
}

// BenchmarkTable2Diversity regenerates the Table 2 diversity comparison.
func BenchmarkTable2Diversity(b *testing.B) {
	benchLists(b, "douban", false)
}

// BenchmarkTable3Similarity regenerates the Table 3 ontology-similarity
// comparison (same panel pass; the similarity column is the target).
func BenchmarkTable3Similarity(b *testing.B) {
	benchLists(b, "douban", false)
}

// BenchmarkTable5Timing regenerates the Table 5 per-user latency
// comparison.
func BenchmarkTable5Timing(b *testing.B) {
	benchLists(b, "douban", false)
}

func benchLists(b *testing.B, kind string, figure6 bool) {
	env := benchEnv(b, kind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ListExperiments(env)
		if err != nil {
			b.Fatal(err)
		}
		if figure6 {
			printOnce(i, experiments.Figure6Text(res))
		} else {
			printOnce(i, res.Text)
		}
	}
}

// BenchmarkTable4MuSweep regenerates the µ-impact sweep for AC2.
func BenchmarkTable4MuSweep(b *testing.B) {
	env := benchEnv(b, "douban")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(env, []int{300, 600, 0})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, res.Text)
	}
}

// BenchmarkBeyondAccuracy regenerates the beyond-accuracy extension panel
// (novelty, serendipity, intra-list similarity, coverage).
func BenchmarkBeyondAccuracy(b *testing.B) {
	env := benchEnv(b, "movielens")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.BeyondAccuracyExperiment(env)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, res.Text)
	}
}

// BenchmarkStratifiedRecall regenerates the popularity-stratified recall
// extension (accuracy by held-out item popularity + bootstrap CIs).
func BenchmarkStratifiedRecall(b *testing.B) {
	env := benchEnv(b, "movielens")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.StratifiedExperiment(env)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, res.Text)
	}
}

// BenchmarkTable6UserStudy regenerates the simulated user study.
func BenchmarkTable6UserStudy(b *testing.B) {
	env := benchEnv(b, "movielens")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table6(env)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, res.Text)
	}
}

// Per-query microbenchmarks: the cost of one user's recommendation.

func benchAlgorithmQuery(b *testing.B, name string) {
	env := benchEnv(b, "movielens")
	rec, err := env.Sys.Algorithm(name)
	if err != nil {
		b.Fatal(err)
	}
	users := env.Panel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := users[i%len(users)]
		if _, err := longtail.RecommendItems(rec, u, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryHT(b *testing.B)          { benchAlgorithmQuery(b, "HT") }
func BenchmarkQueryAT(b *testing.B)          { benchAlgorithmQuery(b, "AT") }
func BenchmarkQueryAC1(b *testing.B)         { benchAlgorithmQuery(b, "AC1") }
func BenchmarkQueryAC2(b *testing.B)         { benchAlgorithmQuery(b, "AC2") }
func BenchmarkQueryDPPR(b *testing.B)        { benchAlgorithmQuery(b, "DPPR") }
func BenchmarkQueryPureSVD(b *testing.B)     { benchAlgorithmQuery(b, "PureSVD") }
func BenchmarkQueryLDA(b *testing.B)         { benchAlgorithmQuery(b, "LDA") }
func BenchmarkQueryUserKNN(b *testing.B)     { benchAlgorithmQuery(b, "UserKNN") }
func BenchmarkQueryItemKNN(b *testing.B)     { benchAlgorithmQuery(b, "ItemKNN") }
func BenchmarkQueryMostPopular(b *testing.B) { benchAlgorithmQuery(b, "MostPopular") }
func BenchmarkQueryBiasedMF(b *testing.B)    { benchAlgorithmQuery(b, "BiasedMF") }
func BenchmarkQuerySVDPP(b *testing.B)       { benchAlgorithmQuery(b, "SVDPP") }
func BenchmarkQueryAsySVD(b *testing.B)      { benchAlgorithmQuery(b, "AsySVD") }

// Hot-path microbenchmarks for the walk query engine (run with -benchmem;
// allocs/op is the regression signal PERFORMANCE.md tracks).

// BenchmarkSubgraphExtract measures one pooled BFS + local-CSR extraction
// (Algorithm 1 step 2) through a reused SubgraphExtractor.
func BenchmarkSubgraphExtract(b *testing.B) {
	env := benchEnv(b, "movielens")
	g := env.Split.Train.Graph()
	ext := graph.NewSubgraphExtractor(g)
	users := env.Panel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := users[i%len(users)]
		seeds, _ := g.Neighbors(g.UserNode(u))
		if _, err := ext.Extract(seeds, 6000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkScores measures one full walk query (extract + fused DP
// sweeps) through the engine's compact scoring path.
func BenchmarkWalkScores(b *testing.B) {
	env := benchEnv(b, "movielens")
	at, ok := env.Sys.AT().(interface {
		ScoreItemsCompact(u int) ([]core.ItemScore, error)
	})
	if !ok {
		b.Fatal("AT recommender lost its compact scoring path")
	}
	users := env.Panel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := users[i%len(users)]
		if _, err := at.ScoreItemsCompact(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendBatch measures serving the whole panel through
// System.RecommendRequests — the one batch fan-out over the single-request
// path — at GOMAXPROCS workers. Compare -cpu 1,2,4 runs to see the
// multi-core scaling.
func BenchmarkRecommendBatch(b *testing.B) {
	env := benchEnv(b, "movielens")
	reqs := make([]longtail.Request, len(env.Panel))
	for i, u := range env.Panel {
		reqs[i] = longtail.Request{User: u, K: 10}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Sys.RecommendRequests(ctx, "AT", reqs, runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendCached is the warm-hit allocation gate: after one
// cold round over the panel every iteration is a cache hit (lookup +
// copy of the top-k slice), which must stay at 1 alloc/op. What a hit and
// a miss cost end to end is the serving benchmark's business (hot_read
// longtail.recommend_hit_us, cold_walk longtail.recommend_miss_ms).
func BenchmarkRecommendCached(b *testing.B) {
	env := benchEnv(b, "movielens")
	// A second System over the bench split with the result cache on (the
	// per-query benchmarks above run uncached so they measure the engine).
	cfg := longtail.DefaultConfig()
	cfg.CacheSize = 8192
	sys, err := longtail.NewSystem(env.Split.Train, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := sys.Algorithm("AT")
	if err != nil {
		b.Fatal(err)
	}
	users := env.Panel
	for _, u := range users { // warm: one miss per panel user
		if _, err := longtail.RecommendItems(rec, u, 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := users[i%len(users)]
		if _, err := longtail.RecommendItems(rec, u, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// discardResponse is an http.ResponseWriter that keeps nothing: the handler
// benchmark measures the handler, not a recorder's buffer.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkHandleRecommendHit is one GET /v1/recommend answered from a
// warm cache, through the whole handler stack (recovery, request log to a
// discarded logger, mux, parse, cache hit, popularity decoration, encode)
// with no socket: what a hit costs the server once HTTP is taken away.
// B/op is the number to read — it says whether a hit still pays for the
// catalog (one popularity vector per request) or only for its answer;
// internal/server's TestHandleRecommendHitAllocs holds the allocs/op.
func BenchmarkHandleRecommendHit(b *testing.B) {
	env := benchEnv(b, "movielens")
	cfg := longtail.DefaultConfig()
	cfg.CacheSize = 8192
	sys, err := longtail.NewSystem(env.Split.Train, cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(sys, server.Options{DefaultAlgorithm: "AT", Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	reqs := make([]*http.Request, len(env.Panel))
	w := &discardResponse{h: make(http.Header)}
	for i, u := range env.Panel { // warm: one miss per panel user
		reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/recommend?user=%d&k=10", u), nil)
		h.ServeHTTP(w, reqs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
	}
}

// BenchmarkSystemConstruction measures graph building and indexing on the
// MovieLens-shaped corpus (model training excluded: recommenders are lazy).
func BenchmarkSystemConstruction(b *testing.B) {
	env := benchEnv(b, "movielens")
	train := env.Split.Train
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := longtail.NewSystem(train, longtail.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendRequest measures one no-options query straight
// through Recommender.Recommend — the primary serving surface.
// PERFORMANCE.md tracks its allocs/op, which must stay at parity with
// BenchmarkQueryAT (the same query through the RecommendItems helper).
func BenchmarkRecommendRequest(b *testing.B) {
	env := benchEnv(b, "movielens")
	rec, err := env.Sys.Algorithm("AT")
	if err != nil {
		b.Fatal(err)
	}
	users := env.Panel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := longtail.Request{User: users[i%len(users)], K: 10}
		if _, err := rec.Recommend(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendRequestOptions measures the option-carrying query
// (exclusions + long-tail mode): the filters run inside the engine's
// stamped selection loop and settle into zero steady-state allocation
// beyond the result, so the option path stays within a few allocs/op of
// the plain query.
func BenchmarkRecommendRequestOptions(b *testing.B) {
	env := benchEnv(b, "movielens")
	rec, err := env.Sys.Algorithm("AT")
	if err != nil {
		b.Fatal(err)
	}
	users := env.Panel
	exclude := []int{1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := longtail.Request{User: users[i%len(users)], K: 10, ExcludeItems: exclude, LongTailOnly: 0.8}
		if _, err := rec.Recommend(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}
