// The allocation gate is compiled out under the race detector, which
// makes sync.Pool drop a share of what it is given and moves a few values
// to the heap: the count it would hold there is not the program's.

//go:build !race

package server

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardResponse is an http.ResponseWriter that keeps nothing.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestHandleRecommendHitAllocs holds a cache hit, through the whole
// handler stack, at 12 allocations: the request-log line's boxed
// arguments and the status recorder (4), one url.Values (4), the
// Content-Type header (1), the algorithm lookup (1), the cached list's
// copy (1) and its rendered items (1). It was 37 when a hit also took a
// fresh catalog-sized popularity vector, parsed its query seven times and
// encoded by reflection; any of those coming back shows here.
// BenchmarkHandleRecommendHit (root package) has the bytes and the time.
func TestHandleRecommendHitAllocs(t *testing.T) {
	cached, _ := cachedTestServer(t)
	srv, err := New(cached, Options{DefaultAlgorithm: "AT", Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := &discardResponse{h: make(http.Header)}
	req := httptest.NewRequest(http.MethodGet, "/v1/recommend?user=0&k=10", nil)
	h.ServeHTTP(w, req) // the miss
	if allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); allocs > 12 {
		t.Fatalf("a cache hit through the handler costs %v allocations, want at most 12", allocs)
	}
	stats := cached.ServingStats()
	if stats.Cache.Misses != 1 || stats.Cache.Hits < 200 {
		t.Fatalf("the measured requests were not cache hits: %+v", stats.Cache)
	}
}
