package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestRecommendRequestEquivalence pins the no-options Request against a
// reference that shares no code with either selection loop: the user's
// full ScoreItems vector, rated and unscorable items dropped, sorted by
// score (ties toward the smaller item index) and cut at K — for the
// engine-native and the adapter implementations, metadata included.
func TestRecommendRequestEquivalence(t *testing.T) {
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 15})
	fr, err := NewFuncRecommender("Flat", g, func(u int) ([]float64, error) {
		scores := make([]float64, g.NumItems())
		for i := range scores {
			scores[i] = float64(g.NumItems() - i)
		}
		return scores, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Recommender{at, fr} {
		for u := 0; u < g.NumUsers(); u++ {
			scores, err := rec.ScoreItems(u)
			if err != nil {
				t.Fatal(err)
			}
			rated, _ := g.UserItems(u)
			var want []Scored
			for i, sc := range scores {
				if !math.IsInf(sc, -1) && !slices.Contains(rated, i) {
					want = append(want, Scored{Item: i, Score: sc})
				}
			}
			sort.SliceStable(want, func(a, b int) bool { return want[a].Score > want[b].Score })
			want = want[:min(4, len(want))]
			resp, err := rec.Recommend(Request{User: u, K: 4}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, resp.Items) {
				t.Fatalf("%s user %d: Request path diverged from the sorted score vector:\nwant %+v\ngot  %+v", rec.Name(), u, want, resp.Items)
			}
			if resp.Algo != rec.Name() {
				t.Fatalf("Algo = %q, want %q", resp.Algo, rec.Name())
			}
			if resp.Fallback || resp.CacheHit || resp.Epoch != g.Epoch() {
				t.Fatalf("unexpected metadata: %+v", resp)
			}
		}
	}
}

// TestRequestOptionFilters exercises ExcludeItems, CandidateItems and
// LongTailOnly on both the engine-native and the adapter paths, checking
// against the unfiltered ranking.
func TestRequestOptionFilters(t *testing.T) {
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 15})
	fr, err := NewFuncRecommender("Flat", g, func(u int) ([]float64, error) {
		scores := make([]float64, g.NumItems())
		for i := range scores {
			scores[i] = float64(g.NumItems() - i)
		}
		return scores, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Recommender{at, fr} {
		base, err := rec.Recommend(Request{User: 0, K: 6}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Items) == 0 {
			t.Fatalf("%s: empty base ranking", rec.Name())
		}
		first := base.Items[0].Item

		// ExcludeItems removes exactly the excluded item.
		excl, err := rec.Recommend(Request{User: 0, K: 6, ExcludeItems: []int{first}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range excl.Items {
			if it.Item == first {
				t.Fatalf("%s: excluded item %d served", rec.Name(), first)
			}
		}
		if want := FilterScored(base.Items, Request{ExcludeItems: []int{first}}, nil); !reflect.DeepEqual(want, excl.Items) {
			t.Fatalf("%s: exclusion diverged from post-filter:\nwant %+v\ngot  %+v", rec.Name(), want, excl.Items)
		}

		// CandidateItems restricts to the slate (duplicates tolerated).
		slate := []int{base.Items[0].Item, base.Items[1].Item, base.Items[0].Item}
		cand, err := rec.Recommend(Request{User: 0, K: 6, CandidateItems: slate}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(cand.Items) != 2 {
			t.Fatalf("%s: slate of 2 served %d items: %+v", rec.Name(), len(cand.Items), cand.Items)
		}
		for _, it := range cand.Items {
			if it.Item != slate[0] && it.Item != slate[1] {
				t.Fatalf("%s: off-slate item %d served", rec.Name(), it.Item)
			}
		}

		// An empty non-nil slate yields an empty result.
		empty, err := rec.Recommend(Request{User: 0, K: 6, CandidateItems: []int{}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(empty.Items) != 0 {
			t.Fatalf("%s: empty slate served %+v", rec.Name(), empty.Items)
		}

		// LongTailOnly keeps only items at or below the percentile cutoff.
		tail, err := rec.Recommend(Request{User: 0, K: 6, LongTailOnly: 0.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pop := g.ItemPopularity()
		cutoff, _ := longTailCutoff(pop, 0.5, nil)
		for _, it := range tail.Items {
			if pop[it.Item] > cutoff {
				t.Fatalf("%s: item %d popularity %d above cutoff %d", rec.Name(), it.Item, pop[it.Item], cutoff)
			}
		}

		// Out-of-range (or NaN) percentile is rejected as ErrInvalidOptions.
		if _, err := rec.Recommend(Request{User: 0, K: 6, LongTailOnly: 1.5}, nil); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("%s: bad percentile error = %v", rec.Name(), err)
		}
		if _, err := rec.Recommend(Request{User: 0, K: 6, LongTailOnly: math.NaN()}, nil); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("%s: NaN percentile error = %v", rec.Name(), err)
		}
		if _, err := rec.Recommend(Request{User: 0, K: 6, ExcludeItems: []int{-3}}, nil); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("%s: negative exclusion error = %v", rec.Name(), err)
		}
	}
}

// TestOptionsKeyCanonical pins the cache-key encoding: order- and
// duplicate-insensitive for the item lists, "" for the no-options
// request, distinct for distinct option sets.
func TestOptionsKeyCanonical(t *testing.T) {
	if k := (Request{User: 3, K: 10}).OptionsKey(); k != "" {
		t.Fatalf("no-options key = %q, want empty", k)
	}
	a := Request{ExcludeItems: []int{5, 1, 5}, CandidateItems: []int{2, 9}, LongTailOnly: 0.25}
	b := Request{ExcludeItems: []int{1, 5}, CandidateItems: []int{9, 2, 2}, LongTailOnly: 0.25}
	if a.OptionsKey() != b.OptionsKey() {
		t.Fatalf("equivalent option sets encode differently: %q vs %q", a.OptionsKey(), b.OptionsKey())
	}
	distinct := []Request{
		{ExcludeItems: []int{1}},
		{ExcludeItems: []int{2}},
		{CandidateItems: []int{1}},
		{CandidateItems: []int{}},
		{LongTailOnly: 0.2},
		{LongTailOnly: 0.25},
		{ExcludeItems: []int{1}, LongTailOnly: 0.2},
		{},
	}
	seen := make(map[string]int)
	for i, req := range distinct {
		k := req.OptionsKey()
		if j, dup := seen[k]; dup {
			t.Fatalf("option sets %d and %d share key %q", j, i, k)
		}
		seen[k] = i
	}
}

// TestLongTailCutoff pins the percentile semantics.
func TestLongTailCutoff(t *testing.T) {
	pop := []int{10, 1, 5, 3, 8, 2, 9, 4, 7, 6} // 1..10 shuffled
	cases := []struct {
		pct  float64
		want int
	}{
		{0.1, 1}, {0.2, 2}, {0.5, 5}, {1, 10}, {0.05, 1},
	}
	for _, c := range cases {
		got, _ := longTailCutoff(pop, c.pct, nil)
		if got != c.want {
			t.Fatalf("cutoff(%v) = %d, want %d", c.pct, got, c.want)
		}
	}
	if cut, _ := longTailCutoff(nil, 0.5, nil); cut != 0 {
		t.Fatalf("empty catalog cutoff = %d", cut)
	}
}

// TestRequestCancelledBeforeQuery: an already-cancelled context returns
// promptly with context.Canceled, and the pooled scratch survives — the
// very next query on the same engine succeeds.
func TestRequestCancelledBeforeQuery(t *testing.T) {
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 15})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := at.Recommend(Request{Ctx: ctx, User: 0, K: 4}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled query took %v", elapsed)
	}
	resp, err := at.Recommend(Request{User: 0, K: 4}, nil)
	if err != nil || len(resp.Items) == 0 {
		t.Fatalf("post-cancel query: %v %+v", err, resp)
	}
}

// TestRequestMidWalkCancellation: a context cancelled while the τ sweeps
// run aborts the walk between iterations instead of finishing an
// absurdly long solve.
func TestRequestMidWalkCancellation(t *testing.T) {
	g := figure2Graph(t)
	// Enough sweeps that the solve runs for seconds if not cancelled.
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 500_000_000})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := at.Recommend(Request{Ctx: ctx, User: 0, K: 4}, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("mid-walk cancellation took %v — the sweep loop is not checking the context", elapsed)
	}
	// The engine (and its pooled scratch) must remain serviceable.
	quick := NewAbsorbingTime(g, WalkOptions{Iterations: 15})
	if _, err := RecommendItems(quick, 0, 4); err != nil {
		t.Fatal(err)
	}
}

// TestRequestDeadlineExceeded: an expired deadline surfaces as
// context.DeadlineExceeded.
func TestRequestDeadlineExceeded(t *testing.T) {
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 500_000_000})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err := at.Recommend(Request{Ctx: ctx, User: 0, K: 4}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBatchRequestPerRequestContext: a batch whose requests carry their
// own contexts honors each one — a cancelled member aborts the batch
// with its context error.
func TestBatchRequestPerRequestContext(t *testing.T) {
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 15})
	serve := func(req Request) (Response, error) { return at.Recommend(req, nil) }
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []Request{
		{User: 0, K: 3},
		{Ctx: cancelled, User: 1, K: 3},
	}
	if _, err := ServeBatch(reqs, 1, serve); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// All-live batch serves everyone.
	live := []Request{{User: 0, K: 3}, {User: 1, K: 3}}
	resps, err := ServeBatch(live, 2, serve)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.Algo != "AT" || len(resp.Items) == 0 {
			t.Fatalf("batch entry %d: %+v", i, resp)
		}
	}
}

// TestConcurrentRequestCancellation races option-carrying and
// context-cancelled requests against live graph writes — the
// race-detector cut for the Request surface (picked up by `make race`).
func TestConcurrentRequestCancellation(t *testing.T) {
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 50})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				u := (w + q) % g.NumUsers()
				req := Request{User: u, K: 4}
				switch q % 3 {
				case 1:
					ctx, cancel := context.WithCancel(context.Background())
					if q%2 == 0 {
						cancel()
					} else {
						defer cancel()
					}
					req.Ctx = ctx
				case 2:
					req.ExcludeItems = []int{0}
					req.LongTailOnly = 0.8
				}
				if _, err := at.Recommend(req, nil); err != nil && !errors.Is(err, context.Canceled) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 60; w++ {
		u, i := w%g.NumUsers(), w%g.NumItems()
		if _, err := g.UpsertRating(u, i, 1+float64(w%5)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
