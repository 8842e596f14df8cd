package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"longtailrec"
	"longtailrec/internal/core"
)

// testSystem builds a small but connected corpus: two taste blocks plus a
// bridge user, and user 7 left cold (no ratings).
func testSystem(t testing.TB) *longtail.System {
	t.Helper()
	ratings := []longtail.Rating{
		{User: 0, Item: 0, Score: 5}, {User: 0, Item: 1, Score: 4}, {User: 0, Item: 2, Score: 5},
		{User: 1, Item: 0, Score: 4}, {User: 1, Item: 2, Score: 5}, {User: 1, Item: 3, Score: 3},
		{User: 2, Item: 1, Score: 5}, {User: 2, Item: 3, Score: 4},
		{User: 3, Item: 4, Score: 5}, {User: 3, Item: 5, Score: 4}, {User: 3, Item: 6, Score: 5},
		{User: 4, Item: 4, Score: 4}, {User: 4, Item: 6, Score: 5}, {User: 4, Item: 7, Score: 3},
		{User: 5, Item: 5, Score: 5}, {User: 5, Item: 7, Score: 4},
		{User: 6, Item: 3, Score: 3}, {User: 6, Item: 4, Score: 3}, // bridge
	}
	d, err := longtail.NewDataset(8, 8, ratings)
	if err != nil {
		t.Fatal(err)
	}
	cfg := longtail.DefaultConfig()
	cfg.LDA.NumTopics = 2
	cfg.LDA.Iterations = 5
	cfg.SVDRank = 2
	sys, err := longtail.NewSystem(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func testServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(testSystem(t), Options{
		DefaultAlgorithm: "AT",
		Logger:           log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t testing.TB, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("decode %s: %v (body %s)", url, err, body)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestHealth(t *testing.T) {
	_, ts := testServer(t)
	var h HealthResponse
	getJSON(t, ts.URL+"/v1/health", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("health %+v", h)
	}
}

func TestStats(t *testing.T) {
	_, ts := testServer(t)
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.NumUsers != 8 || st.NumItems != 8 || st.NumRatings != 18 {
		t.Fatalf("stats %+v", st)
	}
	if st.Density <= 0 || st.MeanScore <= 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAlgorithms(t *testing.T) {
	_, ts := testServer(t)
	var a AlgorithmsResponse
	getJSON(t, ts.URL+"/v1/algorithms", http.StatusOK, &a)
	if a.Default != "AT" {
		t.Fatalf("default %q", a.Default)
	}
	found := false
	for _, name := range a.Algorithms {
		if name == "AC2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("AC2 missing from %v", a.Algorithms)
	}
}

func TestRecommend(t *testing.T) {
	_, ts := testServer(t)
	var rec RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=0&k=3", http.StatusOK, &rec)
	if rec.Algorithm != "AT" {
		t.Fatalf("algorithm %q, want default AT", rec.Algorithm)
	}
	if len(rec.Items) == 0 || len(rec.Items) > 3 {
		t.Fatalf("items %+v", rec.Items)
	}
	rated := map[int]bool{0: true, 1: true, 2: true}
	for _, it := range rec.Items {
		if rated[it.Item] {
			t.Fatalf("recommended already-rated item %d", it.Item)
		}
		if it.Popularity <= 0 {
			t.Fatalf("item %d popularity %d", it.Item, it.Popularity)
		}
	}
}

func TestRecommendExplicitAlgo(t *testing.T) {
	_, ts := testServer(t)
	var rec RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=1&algo=HT&k=2", http.StatusOK, &rec)
	if rec.Algorithm != "HT" {
		t.Fatalf("algorithm %q", rec.Algorithm)
	}
}

func TestRecommendErrors(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		query string
		want  int
	}{
		{"", http.StatusBadRequest},                  // missing user
		{"?user=abc", http.StatusBadRequest},         // non-integer
		{"?user=0&k=0", http.StatusBadRequest},       // k too small
		{"?user=0&k=101", http.StatusBadRequest},     // k over MaxK
		{"?user=0&k=zz", http.StatusBadRequest},      // bad k
		{"?user=0&algo=Nope", http.StatusBadRequest}, // unknown algorithm
		{"?user=99", http.StatusNotFound},            // out of range
		{"?user=-3", http.StatusNotFound},            // negative user
	}
	for _, c := range cases {
		var e map[string]string
		getJSON(t, ts.URL+"/v1/recommend"+c.query, c.want, &e)
		if e["error"] == "" {
			t.Fatalf("%s: no error message", c.query)
		}
	}
}

// TestRecommendColdUserFallback: a user inside the universe but with no
// rating history is served the deterministic live-popularity list (marked
// as a fallback) instead of a cold-user error.
func TestRecommendColdUserFallback(t *testing.T) {
	_, ts := testServer(t) // user 7 has no ratings
	var rec RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=7&k=3", http.StatusOK, &rec)
	if !rec.Fallback {
		t.Fatalf("cold user response not marked fallback: %+v", rec)
	}
	if len(rec.Items) != 3 {
		t.Fatalf("fallback returned %d items, want 3", len(rec.Items))
	}
	for i := 1; i < len(rec.Items); i++ {
		prev, cur := rec.Items[i-1], rec.Items[i]
		if cur.Popularity > prev.Popularity ||
			(cur.Popularity == prev.Popularity && cur.Item < prev.Item) {
			t.Fatalf("fallback not in deterministic popularity order: %+v", rec.Items)
		}
	}
	// Determinism: repeat query, identical body.
	var again RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=7&k=3", http.StatusOK, &again)
	if !reflect.DeepEqual(rec, again) {
		t.Fatalf("fallback not deterministic:\n%+v\n%+v", rec, again)
	}
}

func TestExplain(t *testing.T) {
	_, ts := testServer(t)
	// Find something AT recommends to user 0, then explain it.
	var rec RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=0&k=1", http.StatusOK, &rec)
	if len(rec.Items) == 0 {
		t.Fatal("no recommendation to explain")
	}
	var ex ExplainResponse
	url := fmt.Sprintf("%s/v1/explain?user=0&item=%d", ts.URL, rec.Items[0].Item)
	getJSON(t, url, http.StatusOK, &ex)
	if len(ex.Anchors) == 0 {
		t.Fatal("no anchors")
	}
	total := 0.0
	for _, a := range ex.Anchors {
		if a.Probability <= 0 || a.Probability > 1 {
			t.Fatalf("anchor %+v", a)
		}
		total += a.Probability
	}
	if total > 1.0001 {
		t.Fatalf("anchor probabilities sum to %v", total)
	}
}

func TestExplainErrors(t *testing.T) {
	_, ts := testServer(t)
	var e map[string]string
	getJSON(t, ts.URL+"/v1/explain?user=0", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/explain?item=4", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/explain?user=0&item=400", http.StatusNotFound, &e)
}

func TestUserProfile(t *testing.T) {
	_, ts := testServer(t)
	var u UserResponse
	getJSON(t, ts.URL+"/v1/users/0", http.StatusOK, &u)
	if u.Degree != 3 || len(u.Ratings) != 3 {
		t.Fatalf("user profile %+v", u)
	}
	var e map[string]string
	getJSON(t, ts.URL+"/v1/users/99", http.StatusNotFound, &e)
	getJSON(t, ts.URL+"/v1/users/zz", http.StatusBadRequest, &e)
}

func TestItemProfile(t *testing.T) {
	_, ts := testServer(t)
	var it ItemResponse
	getJSON(t, ts.URL+"/v1/items/0", http.StatusOK, &it)
	if it.Popularity != 2 {
		t.Fatalf("item 0 popularity %d, want 2", it.Popularity)
	}
	if it.MeanScore != 4.5 {
		t.Fatalf("item 0 mean score %v, want 4.5", it.MeanScore)
	}
	var e map[string]string
	getJSON(t, ts.URL+"/v1/items/99", http.StatusNotFound, &e)
	getJSON(t, ts.URL+"/v1/items/xx", http.StatusBadRequest, &e)
}

func TestSimilarItems(t *testing.T) {
	_, ts := testServer(t)
	var sim SimilarResponse
	getJSON(t, ts.URL+"/v1/items/0/similar?k=5", http.StatusOK, &sim)
	if sim.Item != 0 {
		t.Fatalf("echoed item %d", sim.Item)
	}
	if len(sim.Similar) == 0 {
		t.Fatal("no neighbors for a co-rated item")
	}
	for i, e := range sim.Similar {
		if e.Item == 0 {
			t.Fatal("item is its own neighbor")
		}
		if e.Similarity <= 0 || e.Similarity > 1+1e-12 {
			t.Fatalf("similarity %v", e.Similarity)
		}
		if i > 0 && e.Similarity > sim.Similar[i-1].Similarity {
			t.Fatal("neighbors not sorted by similarity")
		}
	}
	// Items 0 and 2 share two raters (users 0, 1); item 0's top neighbors
	// must include item 2.
	found := false
	for _, e := range sim.Similar {
		if e.Item == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("co-rated item 2 missing from %+v", sim.Similar)
	}
}

func TestSimilarItemsErrors(t *testing.T) {
	_, ts := testServer(t)
	var e map[string]string
	getJSON(t, ts.URL+"/v1/items/99/similar", http.StatusNotFound, &e)
	getJSON(t, ts.URL+"/v1/items/zz/similar", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/items/0/similar?k=0", http.StatusBadRequest, &e)
	getJSON(t, ts.URL+"/v1/items/0/similar?k=9999", http.StatusBadRequest, &e)
}

func TestLongTailFlagConsistent(t *testing.T) {
	srv, ts := testServer(t)
	for i := 0; i < 8; i++ {
		var it ItemResponse
		getJSON(t, fmt.Sprintf("%s/v1/items/%d", ts.URL, i), http.StatusOK, &it)
		_, want := srv.tail[i]
		if it.LongTail != want {
			t.Fatalf("item %d long_tail=%v, precomputed %v", i, it.LongTail, want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	// Generate traffic: two successes on the same logical route, one error.
	var u UserResponse
	getJSON(t, ts.URL+"/v1/users/0", http.StatusOK, &u)
	getJSON(t, ts.URL+"/v1/users/1", http.StatusOK, &u)
	var e map[string]string
	getJSON(t, ts.URL+"/v1/users/99", http.StatusNotFound, &e)

	var m MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &m)
	if m.UptimeSeconds < 0 {
		t.Fatalf("uptime %v", m.UptimeSeconds)
	}
	users, ok := m.Endpoints["GET /v1/users/{id}"]
	if !ok {
		t.Fatalf("user route not aggregated: %+v", m.Endpoints)
	}
	if users.Requests != 3 || users.Errors != 1 {
		t.Fatalf("user route stats %+v", users)
	}
	// Three sub-millisecond requests: a mean computed from a total
	// truncated to whole milliseconds would read exactly 0.
	if users.MeanLatencyMS <= 0 {
		t.Fatalf("latency %v", users.MeanLatencyMS)
	}
}

// TestMetricsKeysBounded: the metrics map is keyed by the matched route,
// so a client walking distinct junk paths (unknown routes, non-numeric
// ids on a real route) cannot grow it past the registered routes plus
// the one "unmatched" bucket.
func TestMetricsKeysBounded(t *testing.T) {
	_, ts := testServer(t)
	for i := 0; i < 50; i++ {
		for _, path := range []string{
			fmt.Sprintf("/v1/nope/%dx", i),
			fmt.Sprintf("/v1/items/abc%d/similar", i),
			fmt.Sprintf("/x%d", i),
		} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &m)
	if len(m.Endpoints) != 2 {
		t.Fatalf("150 junk requests left %d metrics keys, want 2: %v", len(m.Endpoints), m.Endpoints)
	}
	if got := m.Endpoints[unmatchedKey].Requests; got != 100 {
		t.Fatalf("unmatched bucket counted %d requests, want 100", got)
	}
	if got := m.Endpoints["GET /v1/items/{id}/similar"]; got.Requests != 50 || got.Errors != 50 {
		t.Fatalf("similar route stats %+v, want 50 requests, all errors", got)
	}
}

func TestUnknownRouteIs404(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/recommend?user=0", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

// panicSource explodes on Algorithm, to exercise the recovery middleware.
type panicSource struct{ Source }

func (panicSource) Recommend(context.Context, string, core.Request) (core.Response, error) {
	panic("kaboom")
}

func TestPanicRecovery(t *testing.T) {
	sys := testSystem(t)
	srv, err := New(panicSource{sys}, Options{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var e map[string]string
	getJSON(t, ts.URL+"/v1/recommend?user=0", http.StatusInternalServerError, &e)
	if !strings.Contains(e["error"], "internal error") {
		t.Fatalf("error %q", e["error"])
	}
}

func TestConcurrentRequests(t *testing.T) {
	_, ts := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/recommend?user=%d&k=3&algo=HT", ts.URL, i%7)
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("user %d: status %d", i%7, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestGracefulShutdown(t *testing.T) {
	srv, err := New(testSystem(t), Options{
		Addr:   "127.0.0.1:0",
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	// Shutdown before any request; ListenAndServe must return nil.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ListenAndServe after shutdown: %v", err)
	}
}

// Interface conformance: *longtail.System must satisfy Source.
var _ Source = (*longtail.System)(nil)

// TestRecommendOptionParams is the table-driven sweep over the
// per-request option parameters of GET /v1/recommend: the happy paths
// shape the result, the malformed ones are client errors (400), and the
// response carries the full envelope (epoch, cache_hit).
func TestRecommendOptionParams(t *testing.T) {
	_, ts := testServer(t)

	// Establish the unfiltered ranking for user 0 (rated 0,1,2).
	var base RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=0&k=8&algo=AT", http.StatusOK, &base)
	if len(base.Items) < 2 {
		t.Fatalf("base ranking too small for the test: %+v", base.Items)
	}
	first := base.Items[0].Item
	second := base.Items[1].Item

	t.Run("exclude", func(t *testing.T) {
		var rec RecommendResponse
		getJSON(t, fmt.Sprintf("%s/v1/recommend?user=0&k=8&algo=AT&exclude=%d", ts.URL, first), http.StatusOK, &rec)
		for _, it := range rec.Items {
			if it.Item == first {
				t.Fatalf("excluded item %d served: %+v", first, rec.Items)
			}
		}
		if len(rec.Items) != len(base.Items)-1 {
			t.Fatalf("exclusion removed %d items, want exactly 1", len(base.Items)-len(rec.Items))
		}
	})

	t.Run("candidates", func(t *testing.T) {
		var rec RecommendResponse
		getJSON(t, fmt.Sprintf("%s/v1/recommend?user=0&k=8&algo=AT&candidates=%d,%d", ts.URL, first, second), http.StatusOK, &rec)
		if len(rec.Items) != 2 {
			t.Fatalf("slate of 2 served %d items: %+v", len(rec.Items), rec.Items)
		}
		for _, it := range rec.Items {
			if it.Item != first && it.Item != second {
				t.Fatalf("off-slate item %d served", it.Item)
			}
		}
	})

	t.Run("long_tail_only", func(t *testing.T) {
		var rec RecommendResponse
		getJSON(t, ts.URL+"/v1/recommend?user=0&k=8&algo=AT&long_tail_only=0.5", http.StatusOK, &rec)
		// The corpus has 8 items; the 0.5-percentile cutoff must exclude
		// the most-popular ones. Every served item's popularity must be
		// at or below every excluded base item's popularity.
		served := map[int]bool{}
		maxServed := 0
		for _, it := range rec.Items {
			served[it.Item] = true
			if it.Popularity > maxServed {
				maxServed = it.Popularity
			}
		}
		for _, it := range base.Items {
			if !served[it.Item] && it.Popularity < maxServed {
				t.Fatalf("long_tail_only kept popularity %d but dropped %d: %+v vs %+v", maxServed, it.Popularity, rec.Items, base.Items)
			}
		}
	})

	t.Run("envelope", func(t *testing.T) {
		var rec RecommendResponse
		getJSON(t, ts.URL+"/v1/recommend?user=0&k=3&algo=AT", http.StatusOK, &rec)
		if rec.CacheHit {
			t.Fatal("cache_hit true on an uncached system")
		}
		// Epoch is 0 on a fresh graph; a live write must move it.
		body := strings.NewReader(`{"user":0,"item":3,"score":4}`)
		resp, err := http.Post(ts.URL+"/v1/ratings", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		var after RecommendResponse
		getJSON(t, ts.URL+"/v1/recommend?user=0&k=3&algo=AT", http.StatusOK, &after)
		if after.Epoch != rec.Epoch+1 {
			t.Fatalf("epoch %d -> %d, want +1", rec.Epoch, after.Epoch)
		}
	})

	t.Run("bad-params", func(t *testing.T) {
		cases := []string{
			"?user=0&exclude=abc",
			"?user=0&exclude=1,x",
			"?user=0&exclude=-4",
			"?user=0&candidates=zz",
			"?user=0&candidates=-1",
			"?user=0&long_tail_only=abc",
			"?user=0&long_tail_only=1.5",
			"?user=0&long_tail_only=-0.1",
			"?user=0&long_tail_only=NaN",
			"?user=0&fallback=maybe",
		}
		for _, q := range cases {
			var e map[string]string
			getJSON(t, ts.URL+"/v1/recommend"+q, http.StatusBadRequest, &e)
			if e["error"] == "" {
				t.Fatalf("%s: no error message", q)
			}
		}
	})

	t.Run("fallback-false-cold-user", func(t *testing.T) {
		// User 7 is cold: the default degrades to the popularity list,
		// ?fallback=false restores the hard 404.
		var e map[string]string
		getJSON(t, ts.URL+"/v1/recommend?user=7&k=3&fallback=false", http.StatusNotFound, &e)
		var rec RecommendResponse
		getJSON(t, ts.URL+"/v1/recommend?user=7&k=3&fallback=true", http.StatusOK, &rec)
		if !rec.Fallback {
			t.Fatalf("fallback response not marked: %+v", rec)
		}
	})

	t.Run("fallback-honors-options", func(t *testing.T) {
		var rec RecommendResponse
		getJSON(t, ts.URL+"/v1/recommend?user=7&k=8&exclude=0", http.StatusOK, &rec)
		if !rec.Fallback {
			t.Fatalf("expected fallback for cold user: %+v", rec)
		}
		for _, it := range rec.Items {
			if it.Item == 0 {
				t.Fatalf("fallback served excluded item 0: %+v", rec.Items)
			}
		}
	})
}

// TestRecommendBatchOptions: the batch endpoint accepts the same option
// params and propagates them to every user.
func TestRecommendBatchOptions(t *testing.T) {
	_, ts := testServer(t)
	var batch RecommendBatchResponse
	getJSON(t, ts.URL+"/v1/recommend/batch?users=0,1&k=8&algo=AT&exclude=3", http.StatusOK, &batch)
	for _, entry := range batch.Results {
		for _, it := range entry.Items {
			if it.Item == 3 {
				t.Fatalf("user %d served excluded item 3", entry.User)
			}
		}
	}
	var e map[string]string
	getJSON(t, ts.URL+"/v1/recommend/batch?users=0,1&long_tail_only=9", http.StatusBadRequest, &e)

	// fallback=true fills cold user 7's entry from the popularity list.
	getJSON(t, ts.URL+"/v1/recommend/batch?users=0,7&k=3&algo=AT&fallback=true", http.StatusOK, &batch)
	if len(batch.Results) != 2 || !batch.Results[1].Fallback || len(batch.Results[1].Items) == 0 {
		t.Fatalf("cold batch entry not degraded: %+v", batch.Results)
	}
	// Default (no fallback): cold users get empty lists, unmarked.
	var plain RecommendBatchResponse
	getJSON(t, ts.URL+"/v1/recommend/batch?users=0,7&k=3&algo=AT", http.StatusOK, &plain)
	if plain.Results[1].Fallback || len(plain.Results[1].Items) != 0 {
		t.Fatalf("cold batch entry changed contract: %+v", plain.Results)
	}
}

// slowSystem builds a System whose walk solves run for minutes unless
// the request context cancels them mid-sweep.
func slowSystem(t testing.TB) *longtail.System {
	t.Helper()
	ratings := []longtail.Rating{
		{User: 0, Item: 0, Score: 5}, {User: 0, Item: 1, Score: 4},
		{User: 1, Item: 0, Score: 4}, {User: 1, Item: 2, Score: 5},
		{User: 2, Item: 1, Score: 5}, {User: 2, Item: 2, Score: 4},
	}
	d, err := longtail.NewDataset(3, 3, ratings)
	if err != nil {
		t.Fatal(err)
	}
	cfg := longtail.DefaultConfig()
	cfg.Walk.Iterations = 500_000_000
	sys, err := longtail.NewSystem(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRecommendClientTimeoutCancelsWalk is the acceptance test for
// context propagation: a client-side timeout on
// GET /v1/recommend?user=U&k=K&long_tail_only=P cancels the in-flight
// walk — the handler returns within a bound that is orders of magnitude
// below the uncancelled solve time, and the server stays serviceable.
func TestRecommendClientTimeoutCancelsWalk(t *testing.T) {
	srv, err := New(slowSystem(t), Options{
		DefaultAlgorithm: "AT",
		Logger:           log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	_, err = client.Get(ts.URL + "/v1/recommend?user=0&k=2&long_tail_only=0.9")
	if err == nil {
		t.Fatal("expected the client timeout to fire")
	}
	// The handler must observe the cancellation promptly: wait for the
	// request to be recorded in the metrics (it only lands there when
	// the handler returns) well before the uncancelled solve could end.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var m MetricsResponse
		getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &m)
		done := false
		for route, e := range m.Endpoints {
			if strings.Contains(route, "/v1/recommend") && !strings.Contains(route, "batch") && e.Requests > 0 {
				done = true
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled walk still running after 10s — context not propagated into the engine")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("handler held the walk for %v after client abandoned", elapsed)
	}
}

// TestRecommendServerRequestTimeout: Options.RequestTimeout deadlines
// the query server-side and surfaces 504 to a patient client.
func TestRecommendServerRequestTimeout(t *testing.T) {
	srv, err := New(slowSystem(t), Options{
		DefaultAlgorithm: "AT",
		Logger:           log.New(io.Discard, "", 0),
		RequestTimeout:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	start := time.Now()
	var e map[string]string
	getJSON(t, ts.URL+"/v1/recommend?user=0&k=2", http.StatusGatewayTimeout, &e)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	if e["error"] == "" {
		t.Fatal("no error message")
	}
	// Batch honors the deadline too.
	getJSON(t, ts.URL+"/v1/recommend/batch?users=0,1&k=2", http.StatusGatewayTimeout, &e)
}

// TestConcurrentMetricsAcrossRoutes: requests on several routes (and on
// none) recorded from many goroutines, with /v1/metrics read meanwhile.
// The counters are lock-free, so the totals must still be exact. Run under
// -race.
func TestConcurrentMetricsAcrossRoutes(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.Handler()
	paths := []struct {
		path, key string
		status    int
	}{
		{"/v1/health", "GET /v1/health", http.StatusOK},
		{"/v1/users/0", "GET /v1/users/{id}", http.StatusOK},
		{"/v1/users/99", "GET /v1/users/{id}", http.StatusNotFound},
		{"/v1/recommend?user=0&k=2&algo=HT", "GET /v1/recommend", http.StatusOK},
		{"/v1/nope", unmatchedKey, http.StatusNotFound},
		{"/v1/metrics", "GET /v1/metrics", http.StatusOK},
	}
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, p := range paths {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p.path, nil))
					if rec.Code != p.status {
						t.Errorf("GET %s = %d, want %d", p.path, rec.Code, p.status)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var m MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	want := map[string]EndpointMetrics{}
	for _, p := range paths {
		row := want[p.key]
		row.Requests += workers * rounds
		if p.status >= 400 {
			row.Errors += workers * rounds
		}
		want[p.key] = row
	}
	if len(m.Endpoints) != len(want) {
		t.Fatalf("metrics keys %v, want those of %v", m.Endpoints, want)
	}
	for key, row := range want {
		if got := m.Endpoints[key]; got.Requests != row.Requests || got.Errors != row.Errors {
			t.Errorf("%s: %d requests / %d errors, want %d / %d", key, got.Requests, got.Errors, row.Requests, row.Errors)
		}
	}
}
