// Tests for the live serving layer: POST /v1/ratings, the dense-admission
// cap and the epoch/cache counters on /v1/stats.

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"longtailrec"
	"longtailrec/internal/core"
	"longtailrec/internal/graph"
)

// cachedTestServer builds a server over a System with the result cache on.
func cachedTestServer(t testing.TB) (*longtail.System, *httptest.Server) {
	t.Helper()
	sys := testSystem(t)
	ratings := sys.Data().Ratings()
	d, err := longtail.NewDataset(sys.Data().NumUsers(), sys.Data().NumItems(), ratings)
	if err != nil {
		t.Fatal(err)
	}
	cfg := longtail.DefaultConfig()
	cfg.LDA.NumTopics = 2
	cfg.LDA.Iterations = 5
	cfg.SVDRank = 2
	cfg.CacheSize = 64
	cachedSys, err := longtail.NewSystem(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cachedSys, Options{
		DefaultAlgorithm: "AT",
		Logger:           log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return cachedSys, ts
}

func postJSON(t testing.TB, url string, body any, wantStatus int, into any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d (body %s)", url, resp.StatusCode, wantStatus, data)
	}
	if into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("decode %s: %v (body %s)", url, err, data)
		}
	}
}

func TestRatingsEndpoint(t *testing.T) {
	sys, ts := cachedTestServer(t)

	// New edge: 201, epoch 1, added.
	var rr RatingResponse
	postJSON(t, ts.URL+"/v1/ratings", RatingRequest{User: 7, Item: 0, Score: 5}, http.StatusCreated, &rr)
	if !rr.Added || rr.Epoch != 1 {
		t.Fatalf("insert response %+v", rr)
	}
	// Re-rate: 200, epoch 2, not added.
	postJSON(t, ts.URL+"/v1/ratings", RatingRequest{User: 7, Item: 0, Score: 3}, http.StatusOK, &rr)
	if rr.Added || rr.Epoch != 2 {
		t.Fatalf("re-rate response %+v", rr)
	}
	if got := sys.Epoch(); got != 2 {
		t.Fatalf("system epoch %d, want 2", got)
	}

	// The previously cold user 7 is now servable via the live graph.
	var rec RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=7&k=3", http.StatusOK, &rec)
	if len(rec.Items) == 0 {
		t.Fatal("no recommendations for freshly rated user")
	}
	for _, it := range rec.Items {
		if it.Item == 0 {
			t.Fatalf("rated item 0 recommended: %+v", rec.Items)
		}
	}
}

func TestRatingsEndpointErrors(t *testing.T) {
	_, ts := cachedTestServer(t)
	post := func(body string, wantStatus int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ratings", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %q = %d, want %d", body, resp.StatusCode, wantStatus)
		}
	}
	post(`{not json`, http.StatusBadRequest)
	post(`{"user":0,"item":0,"score":5,"bogus":1}`, http.StatusBadRequest)
	post(`{"user":0,"item":0,"score":-1}`, http.StatusBadRequest)
	post(`{"user":999,"item":0,"score":4}`, http.StatusNotFound)
	post(`{"user":0,"item":999,"score":4}`, http.StatusNotFound)
	// GET on the POST-only route is a 405.
	resp, err := http.Get(ts.URL + "/v1/ratings")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/ratings = %d, want 405", resp.StatusCode)
	}
}

// growTestServer builds a server over a System with the universe open
// (AutoGrow) and the result cache on.
func growTestServer(t testing.TB) (*longtail.System, *httptest.Server) {
	t.Helper()
	base := testSystem(t)
	d, err := longtail.NewDataset(base.Data().NumUsers(), base.Data().NumItems(), base.Data().Ratings())
	if err != nil {
		t.Fatal(err)
	}
	cfg := longtail.ServingConfig(64, 16)
	cfg.LDA.NumTopics = 2
	cfg.LDA.Iterations = 5
	cfg.SVDRank = 2
	sys, err := longtail.NewSystem(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, Options{
		DefaultAlgorithm: "AT",
		Logger:           log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return sys, ts
}

// TestOpenUniverseIngest is the end-to-end cold-start flow: a rating from
// an unseen user for an unseen item is a 201 (not a 4xx), bumps the
// epoch, grows the live universe, and — once the newcomer links the new
// item into an existing taste cluster — a recommendation for an existing
// user can surface the brand-new item.
func TestOpenUniverseIngest(t *testing.T) {
	sys, ts := growTestServer(t)

	// Unseen user 8 AND unseen item 8 (universe is 8×8): admitted, 201.
	var rr RatingResponse
	postJSON(t, ts.URL+"/v1/ratings", RatingRequest{User: 8, Item: 8, Score: 5}, http.StatusCreated, &rr)
	if !rr.Added {
		t.Fatalf("auto-grow insert response %+v", rr)
	}
	// 1 new user + 1 new item + 1 edge = 3 accepted writes.
	if rr.Epoch != 3 || sys.Epoch() != 3 {
		t.Fatalf("epoch %d (response %d), want 3", sys.Epoch(), rr.Epoch)
	}
	if nu, ni := sys.Universe(); nu != 9 || ni != 9 {
		t.Fatalf("live universe %d/%d, want 9/9", nu, ni)
	}

	// The newcomer also rates item 0, linking item 8 into the cluster of
	// users 0 and 1.
	postJSON(t, ts.URL+"/v1/ratings", RatingRequest{User: 8, Item: 0, Score: 4}, http.StatusCreated, &rr)

	// An existing user's walk can now reach — and surface — the new item.
	var rec RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=0&k=8", http.StatusOK, &rec)
	if rec.Fallback {
		t.Fatalf("established user served the fallback: %+v", rec)
	}
	found := false
	for _, it := range rec.Items {
		if it.Item == 8 {
			found = true
			if !it.LongTail {
				t.Fatalf("brand-new item not marked long-tail: %+v", it)
			}
			if it.Popularity != 1 {
				t.Fatalf("brand-new item popularity %d, want 1", it.Popularity)
			}
		}
	}
	if !found {
		t.Fatalf("live-admitted item 8 absent from user 0's recommendations: %+v", rec.Items)
	}

	// The newcomer itself is immediately servable by the live walk.
	getJSON(t, ts.URL+"/v1/recommend?user=8&k=3", http.StatusOK, &rec)
	if rec.Fallback || len(rec.Items) == 0 {
		t.Fatalf("grown user not served personalized recs: %+v", rec)
	}
	for _, it := range rec.Items {
		if it.Item == 8 || it.Item == 0 {
			t.Fatalf("rated item recommended back to grown user: %+v", rec.Items)
		}
	}

	// A brand-new user with NO history gets the popularity fallback, not
	// an error.
	sys.Graph().AddUser() // user 9 exists, zero edges
	getJSON(t, ts.URL+"/v1/recommend?user=9&k=3", http.StatusOK, &rec)
	if !rec.Fallback || len(rec.Items) == 0 {
		t.Fatalf("history-less user not served the fallback: %+v", rec)
	}

	// /v1/stats reports both the corpus snapshot and the live universe.
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.NumUsers != 8 || st.NumItems != 8 {
		t.Fatalf("corpus counts moved: %+v", st)
	}
	if st.LiveNumUsers != 10 || st.LiveNumItems != 9 {
		t.Fatalf("live universe %d/%d, want 10/9", st.LiveNumUsers, st.LiveNumItems)
	}

	// Batch recommend accepts grown user ids.
	var br RecommendBatchResponse
	getJSON(t, ts.URL+"/v1/recommend/batch?users=0,8&k=3", http.StatusOK, &br)
	if len(br.Results) != 2 || len(br.Results[1].Items) == 0 {
		t.Fatalf("batch with grown user: %+v", br)
	}
}

// TestRatingsErrorTable is the table-driven cut over the write and read
// error paths: client mistakes must map to 4xx (404 for unknown ids, 400
// for malformed input), never 500 — with auto-grow deciding whether an
// unseen id is admitted or unknown.
func TestRatingsErrorTable(t *testing.T) {
	post := func(ts *httptest.Server) func(body string, wantStatus int) {
		return func(body string, wantStatus int) {
			t.Helper()
			resp, err := http.Post(ts.URL+"/v1/ratings", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != wantStatus {
				t.Fatalf("POST %q = %d, want %d", body, resp.StatusCode, wantStatus)
			}
		}
	}

	t.Run("closed universe", func(t *testing.T) {
		_, ts := cachedTestServer(t) // AutoGrow off
		p := post(ts)
		p(`{not json`, http.StatusBadRequest)
		p(`{"user":0,"item":0,"score":5,"bogus":1}`, http.StatusBadRequest)
		p(`{"user":0,"item":0,"score":0}`, http.StatusBadRequest)
		p(`{"user":8,"item":0,"score":4}`, http.StatusNotFound)  // unseen user rejected
		p(`{"user":0,"item":8,"score":4}`, http.StatusNotFound)  // unseen item rejected
		p(`{"user":-1,"item":0,"score":4}`, http.StatusNotFound) // negative
	})

	t.Run("open universe", func(t *testing.T) {
		_, ts := growTestServer(t) // AutoGrow on
		p := post(ts)
		p(`{not json`, http.StatusBadRequest)
		p(`{"user":0,"item":0,"score":5,"bogus":1}`, http.StatusBadRequest)
		p(`{"user":0,"item":0,"score":-2}`, http.StatusBadRequest)
		p(`{"user":-1,"item":0,"score":4}`, http.StatusNotFound)      // negative still 404
		p(`{"user":0,"item":-7,"score":4}`, http.StatusNotFound)      // negative still 404
		p(`{"user":9000000,"item":0,"score":4}`, http.StatusNotFound) // absurd jump still 404
		p(`{"user":0,"item":9000000,"score":4}`, http.StatusNotFound) // absurd jump still 404
		p(`{"user":10,"item":10,"score":4}`, http.StatusCreated)      // unseen: admitted
		p(`{"user":10,"item":10,"score":2}`, http.StatusOK)           // re-rate the grown edge
	})

	t.Run("recommend paths", func(t *testing.T) {
		_, ts := growTestServer(t)
		get := func(query string, wantStatus int) {
			t.Helper()
			resp, err := http.Get(ts.URL + "/v1/recommend" + query)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != wantStatus {
				t.Fatalf("GET %q = %d, want %d", query, resp.StatusCode, wantStatus)
			}
		}
		get("?user=-1", http.StatusNotFound)            // negative
		get("?user=99", http.StatusNotFound)            // beyond live universe
		get("?user=0&algo=Nope", http.StatusBadRequest) // unknown algorithm
		get("?user=7", http.StatusOK)                   // cold user: fallback, not 404/500
		// A snapshot baseline asked about a grown user also degrades to the
		// fallback (the model predates the user) rather than erroring.
		var rr RatingResponse
		postJSON(t, ts.URL+"/v1/ratings", RatingRequest{User: 8, Item: 0, Score: 4}, http.StatusCreated, &rr)
		var rec RecommendResponse
		getJSON(t, ts.URL+"/v1/recommend?user=8&algo=MostPopular&k=3", http.StatusOK, &rec)
		if !rec.Fallback {
			t.Fatalf("snapshot baseline for grown user not degraded: %+v", rec)
		}
	})
}

// TestErrStatusMapping pins the error -> HTTP status table directly.
func TestErrStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrap: %w", core.ErrColdUser), http.StatusNotFound},
		{fmt.Errorf("no recommender is registered as %q: %w", "X", core.ErrUnknownAlgorithm), http.StatusBadRequest},
		{errors.New("graph: edge weight -1 must be positive and finite"), http.StatusBadRequest},
		{errors.New("graph: rating (user 1, item 2) already exists"), http.StatusConflict},
		{errors.New("graph: rating (user 1, item 2) does not exist"), http.StatusNotFound},
		{errors.New("graph: user 99 out of range [0,8)"), http.StatusNotFound},
		{errors.New("graph: user 9000000 out of range [0,8) (auto-grow admits at most 1024 new ids past 8)"), http.StatusNotFound},
		{errors.New("something unexpected"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := errStatus(c.err); got != c.want {
			t.Errorf("errStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestStatsCacheCounters drives repeat and post-write queries and checks
// the /v1/stats serving section tracks them.
func TestStatsCacheCounters(t *testing.T) {
	_, ts := cachedTestServer(t)

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Cache == nil {
		t.Fatal("cache section missing with caching enabled")
	}
	if st.Epoch != 0 || st.Cache.Hits+st.Cache.Misses != 0 {
		t.Fatalf("fresh stats %+v / %+v", st, *st.Cache)
	}

	var cold, warm RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=0&k=3", http.StatusOK, &cold)
	getJSON(t, ts.URL+"/v1/recommend?user=0&k=3", http.StatusOK, &warm)
	if !reflect.DeepEqual(cold.Items, warm.Items) {
		t.Fatalf("cached response diverged:\n%+v\n%+v", cold.Items, warm.Items)
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 || st.Cache.Size != 1 {
		t.Fatalf("after repeat query: %+v", *st.Cache)
	}
	if st.Cache.HitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", st.Cache.HitRate)
	}

	// A write bumps the epoch; the next identical query is a miss.
	postJSON(t, ts.URL+"/v1/ratings", RatingRequest{User: 6, Item: 0, Score: 4}, http.StatusCreated, nil)
	getJSON(t, ts.URL+"/v1/recommend?user=0&k=3", http.StatusOK, &warm)
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", st.Epoch)
	}
	if st.Cache.Misses != 2 {
		t.Fatalf("post-write query served stale: %+v", *st.Cache)
	}
	if st.PendingWrites != 1 {
		t.Fatalf("pending writes %d, want 1", st.PendingWrites)
	}
}

// TestStatsCacheDisabled: without a cache the section is omitted but the
// epoch still reports.
func TestStatsCacheDisabled(t *testing.T) {
	_, ts := testServer(t) // DefaultConfig: CacheSize 0
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.Cache != nil {
		t.Fatalf("cache section present with caching disabled: %+v", *st.Cache)
	}
}

// TestRatingsCapIn404Message pins the dense-admission cap surfacing in
// the live-write 404 body: the error text a client sees quotes
// graph.MaxDenseAdmissions itself, so documentation, error message and
// enforced limit cannot drift apart.
func TestRatingsCapIn404Message(t *testing.T) {
	sys, ts := growTestServer(t)
	absurd := sys.Data().NumUsers() + graph.MaxDenseAdmissions // first rejected id
	body := fmt.Sprintf(`{"user":%d,"item":0,"score":3}`, absurd)
	resp, err := http.Post(ts.URL+"/v1/ratings", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absurd id write = %d, want 404 (body %s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), strconv.Itoa(graph.MaxDenseAdmissions)) {
		t.Fatalf("404 body %q does not quote the admission cap %d", raw, graph.MaxDenseAdmissions)
	}
}

// clusterServer serves two fully disconnected rating clusters (users 0-2
// over items 0-3, users 3-5 over items 4-7), so a write inside one cluster
// provably cannot touch the other cluster's subgraphs — the setup under
// which fingerprint revalidation keeps entries alive across epoch
// movement.
func clusterServer(t testing.TB) *httptest.Server {
	t.Helper()
	ratings := []longtail.Rating{
		{User: 0, Item: 0, Score: 5}, {User: 0, Item: 1, Score: 4}, {User: 0, Item: 2, Score: 5},
		{User: 1, Item: 0, Score: 4}, {User: 1, Item: 2, Score: 5}, {User: 1, Item: 3, Score: 3},
		{User: 2, Item: 1, Score: 5}, {User: 2, Item: 3, Score: 4},
		{User: 3, Item: 4, Score: 5}, {User: 3, Item: 5, Score: 4}, {User: 3, Item: 6, Score: 5},
		{User: 4, Item: 4, Score: 4}, {User: 4, Item: 6, Score: 5}, {User: 4, Item: 7, Score: 3},
		{User: 5, Item: 5, Score: 5}, {User: 5, Item: 7, Score: 4},
	}
	d, err := longtail.NewDataset(6, 8, ratings)
	if err != nil {
		t.Fatal(err)
	}
	cfg := longtail.ServingConfig(256, 0)
	cfg.LDA.NumTopics = 2
	cfg.LDA.Iterations = 5
	cfg.SVDRank = 2
	sys, err := longtail.NewSystem(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, Options{
		DefaultAlgorithm: "AT",
		Logger:           log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestStatsFingerprintCounters drives the precision-invalidation counters
// end to end over HTTP: after a write in one cluster, the other cluster's
// warmed entry survives as a fingerprint-proven hit (fingerprint_hits),
// the writer's own entry is rejected (fingerprint_rejects), and both
// counters surface in /v1/stats under their documented wire names.
func TestStatsFingerprintCounters(t *testing.T) {
	t.Run("cross_cluster_write", func(t *testing.T) {
		ts := clusterServer(t)
		const writer, item = 3, 7 // a new edge inside cluster B
		// Warm both users' entries, then the write.
		var rec RecommendResponse
		getJSON(t, fmt.Sprintf("%s/v1/recommend?user=0&k=3", ts.URL), http.StatusOK, &rec)
		getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&k=3", ts.URL, writer), http.StatusOK, &rec)
		body := fmt.Sprintf(`{"user":%d,"item":%d,"score":4.5}`, writer, item)
		resp, err := http.Post(ts.URL+"/v1/ratings", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/ratings = %d, want 201", resp.StatusCode)
		}

		// Reader 0's entry survives the epoch bump: the write touched only
		// cluster-B nodes, outside user 0's subgraph bloom.
		getJSON(t, fmt.Sprintf("%s/v1/recommend?user=0&k=3", ts.URL), http.StatusOK, &rec)
		if !rec.CacheHit {
			t.Fatal("cross-cluster write evicted a provably untouched entry")
		}
		// The writer's own entry must NOT survive — its subgraph contains the
		// written nodes.
		getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&k=3", ts.URL, writer), http.StatusOK, &rec)
		if rec.CacheHit {
			t.Fatal("writer's own stale entry served after its write")
		}

		var st StatsResponse
		getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
		if st.Cache == nil {
			t.Fatal("cache section missing")
		}
		if st.Cache.FingerprintHits != 1 {
			t.Fatalf("fingerprint_hits = %d, want 1 (stats %+v)", st.Cache.FingerprintHits, *st.Cache)
		}
		if st.Cache.FingerprintRejects != 1 {
			t.Fatalf("fingerprint_rejects = %d, want 1 (stats %+v)", st.Cache.FingerprintRejects, *st.Cache)
		}
		if st.Cache.JournalOverflows != 0 {
			t.Fatalf("journal_overflows = %d, want 0", st.Cache.JournalOverflows)
		}

		// The JSON wire names themselves: decode the raw body and check the
		// cache section spells the documented keys.
		raw := struct {
			Cache map[string]any `json:"cache"`
		}{}
		getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &raw)
		for _, k := range []string{"fingerprint_hits", "fingerprint_rejects", "journal_overflows"} {
			if _, ok := raw.Cache[k]; !ok {
				t.Fatalf("stats cache section missing %q: %v", k, raw.Cache)
			}
		}
	})
}
