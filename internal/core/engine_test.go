package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"longtailrec/internal/graph"
)

// engineTestGraph builds a random bipartite graph with user 0 cold.
func engineTestGraph(t testing.TB, numUsers, numItems int, seed int64) *graph.Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(numUsers, numItems)
	for u := 1; u < numUsers; u++ {
		k := 3 + rng.Intn(8)
		for ; k > 0; k-- {
			_ = b.AddRating(u, rng.Intn(numItems), float64(1+rng.Intn(5)))
		}
	}
	return b.Build()
}

// walkRecommenders builds one of each engine-backed recommender over g.
func walkRecommenders(t testing.TB, g *graph.Bipartite, opts WalkOptions) []Recommender {
	t.Helper()
	ue := make([]float64, g.NumUsers())
	ie := make([]float64, g.NumItems())
	rng := rand.New(rand.NewSource(7))
	for i := range ue {
		ue[i] = rng.Float64() * 2
	}
	for i := range ie {
		ie[i] = rng.Float64() * 2
	}
	ac, err := NewAbsorbingCost(g, "AC1", ue, CostOptions{WalkOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	ac3, err := NewSymmetricAbsorbingCost(g, "AC3", ue, ie, CostOptions{WalkOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	return []Recommender{
		NewHittingTime(g, opts),
		NewAbsorbingTime(g, opts),
		ac, ac3,
	}
}

// serveUsers is the plain (users, k) batch: one option-free Request per
// user through ServeBatch over rec.
func serveUsers(rec Recommender, users []int, k, parallelism int) ([]Response, error) {
	reqs := make([]Request, len(users))
	for i, u := range users {
		reqs[i] = Request{User: u, K: k}
	}
	return ServeBatch(reqs, parallelism, func(req Request) (Response, error) {
		return rec.Recommend(req, nil)
	})
}

// TestCompactScoresMatchFull checks the compact (item, score) view against
// the full score vector: same items scored, same values, nothing else.
func TestCompactScoresMatchFull(t *testing.T) {
	g := engineTestGraph(t, 30, 80, 1)
	ht := NewHittingTime(g, WalkOptions{MaxSubgraphItems: 25, Iterations: 10})
	at := NewAbsorbingTime(g, WalkOptions{MaxSubgraphItems: 25, Iterations: 10})
	for u := 1; u < 10; u++ {
		for _, rec := range []interface {
			ScoreItems(int) ([]float64, error)
			ScoreItemsCompact(int) ([]ItemScore, error)
		}{ht, at} {
			full, err := rec.ScoreItems(u)
			if err != nil {
				t.Fatal(err)
			}
			compact, err := rec.ScoreItemsCompact(u)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int]float64, len(compact))
			for _, is := range compact {
				seen[is.Item] = is.Score
			}
			if len(seen) != len(compact) {
				t.Fatal("duplicate items in compact result")
			}
			for i, s := range full {
				cs, ok := seen[i]
				if math.IsInf(s, -1) {
					if ok {
						t.Fatalf("user %d item %d: compact scored an out-of-subgraph item", u, i)
					}
					continue
				}
				if !ok || cs != s {
					t.Fatalf("user %d item %d: compact %v (present %v), full %v", u, i, cs, ok, s)
				}
			}
		}
	}
}

// TestRecommendBatchMatchesSequential checks that batch results are
// identical to one-at-a-time Recommend calls, for every walk recommender
// and at every parallelism.
func TestRecommendBatchMatchesSequential(t *testing.T) {
	g := engineTestGraph(t, 40, 100, 2)
	users := make([]int, 0, 39)
	for u := 1; u < 40; u++ {
		users = append(users, u)
	}
	for _, rec := range walkRecommenders(t, g, WalkOptions{MaxSubgraphItems: 30, Iterations: 8}) {
		for _, parallelism := range []int{0, 1, 4, 64} {
			batch, err := serveUsers(rec, users, 5, parallelism)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(users) {
				t.Fatalf("batch returned %d lists for %d users", len(batch), len(users))
			}
			for i, u := range users {
				want, err := RecommendItems(rec, u, 5)
				if err != nil {
					t.Fatal(err)
				}
				got := batch[i].Items
				if len(got) != len(want) {
					t.Fatalf("%T user %d: batch %d items, sequential %d", rec, u, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%T user %d slot %d: batch %+v, sequential %+v", rec, u, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestRecommendBatchColdUser checks cold users yield zero Responses — the
// marker the serving layer hangs its popularity fallback on — without
// failing the batch, whether the walk is anchored at S_q (AT) or at the
// user's own node (HT), while out-of-range users abort it.
func TestRecommendBatchColdUser(t *testing.T) {
	g := engineTestGraph(t, 20, 50, 3)
	for _, rec := range []Recommender{NewAbsorbingTime(g, WalkOptions{Iterations: 5}), NewHittingTime(g, WalkOptions{Iterations: 5})} {
		batch, err := serveUsers(rec, []int{5, 0, 6}, 3, 2) // user 0 is cold
		if err != nil {
			t.Fatalf("%s: %v", rec.Name(), err)
		}
		for _, i := range []int{0, 2} {
			if batch[i].Algo != rec.Name() || len(batch[i].Items) != 3 {
				t.Fatalf("%s: warm batch entry %d = %+v", rec.Name(), i, batch[i])
			}
		}
		if batch[1].Algo != "" || batch[1].Items != nil {
			t.Fatalf("%s: cold batch entry %+v, want the zero Response", rec.Name(), batch[1])
		}
		if _, err := serveUsers(rec, []int{5, 99}, 3, 2); !errors.Is(err, ErrUserOutOfRange) {
			t.Fatalf("%s: out-of-range user: err = %v", rec.Name(), err)
		}
	}
}

// TestEngineConcurrentUse hammers one shared engine from many goroutines
// mixing single requests and batches; run under -race this locks in the
// pool's thread-safety.
func TestEngineConcurrentUse(t *testing.T) {
	g := engineTestGraph(t, 30, 60, 4)
	recs := walkRecommenders(t, g, WalkOptions{MaxSubgraphItems: 20, Iterations: 6})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 10; q++ {
				rec := recs[(w+q)%len(recs)]
				u := 1 + (w*7+q)%29
				if q%3 == 0 {
					if _, err := serveUsers(rec, []int{u, 1 + u%29, 1 + (u+3)%29}, 4, 2); err != nil {
						errc <- err
						return
					}
					continue
				}
				if _, err := RecommendItems(rec, u, 4); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestServeBatch pins the one fan-out's own contract on a recommender
// with no engine behind it (a score-function adapter) and on a bare serve
// func: input order at any worker count, an empty batch, cold → zero
// Response, and the first other error aborting with its user named.
func TestServeBatch(t *testing.T) {
	g := engineTestGraph(t, 10, 20, 5)
	fr, err := NewFuncRecommender("const", g, func(u int) ([]float64, error) {
		out := make([]float64, g.NumItems())
		for i := range out {
			out[i] = float64(i)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resps, err := serveUsers(fr, []int{1, 2}, 3, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.Algo != "const" || len(resp.Items) != 3 {
			t.Fatalf("entry %d = %+v", i, resp)
		}
	}
	if out, err := ServeBatch(nil, 4, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
	boom := errors.New("boom")
	reqs := make([]Request, 50)
	for i := range reqs {
		reqs[i].User = i
	}
	for _, parallelism := range []int{-1, 1, 3, 500} {
		var calls atomic.Int64
		out, err := ServeBatch(reqs, parallelism, func(req Request) (Response, error) {
			calls.Add(1)
			if req.User%7 == 3 {
				return Response{}, fmt.Errorf("wrapped: %w", ErrColdUser)
			}
			return Response{Algo: "x", Epoch: uint64(req.User)}, nil
		})
		if err != nil || calls.Load() != 50 {
			t.Fatalf("parallelism %d: err %v after %d calls", parallelism, err, calls.Load())
		}
		for i, resp := range out {
			if cold := i%7 == 3; cold != (resp.Algo == "") || (!cold && resp.Epoch != uint64(i)) {
				t.Fatalf("parallelism %d: entry %d = %+v", parallelism, i, resp)
			}
		}
		out, err = ServeBatch(reqs, parallelism, func(req Request) (Response, error) {
			if req.User == 20 {
				return Response{}, boom
			}
			return Response{Algo: "x"}, nil
		})
		if out != nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "batch user 20") {
			t.Fatalf("parallelism %d: failing batch = %v, %v", parallelism, out, err)
		}
	}
}

// TestEngineColdUserError checks the single-query cold-user contract:
// ErrColdUser wherever the walk is anchored.
func TestEngineColdUserError(t *testing.T) {
	g := engineTestGraph(t, 10, 20, 6)
	for _, rec := range []Recommender{NewAbsorbingTime(g, WalkOptions{}), NewHittingTime(g, WalkOptions{})} {
		if recs, err := RecommendItems(rec, 0, 3); !errors.Is(err, ErrColdUser) {
			t.Fatalf("%s cold user: recs %v, err = %v, want ErrColdUser", rec.Name(), recs, err)
		}
	}
}
