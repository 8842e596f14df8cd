package shard

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"longtailrec/internal/cache"
	"longtailrec/internal/core"
	"longtailrec/internal/graph"
)

func TestAssign(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		for u := -5; u < 40; u++ {
			s := Assign(u, n)
			if s < 0 || s >= n {
				t.Fatalf("Assign(%d, %d) = %d out of range", u, n, s)
			}
			// Pure function: the assignment must never change, no matter
			// how many times (or when) it is asked — this is what makes
			// it survive auto-grow admissions.
			if again := Assign(u, n); again != s {
				t.Fatalf("Assign(%d, %d) unstable: %d then %d", u, n, s, again)
			}
		}
	}
	if Assign(5, 0) != 0 || Assign(5, -3) != 0 {
		t.Fatal("non-positive shard counts must map to shard 0")
	}
	// Dense ids spread over every shard.
	hit := make(map[int]bool)
	for u := 0; u < 16; u++ {
		hit[Assign(u, 4)] = true
	}
	if len(hit) != 4 {
		t.Fatalf("dense ids covered %d of 4 shards", len(hit))
	}
}

// testGraph builds one small replica graph: 4 users, 4 items, a ring.
func testGraph(t testing.TB) *graph.Bipartite {
	t.Helper()
	g, err := graph.FromRatings(4, 4, []graph.Rating{
		{User: 0, Item: 0, Weight: 5}, {User: 0, Item: 1, Weight: 3},
		{User: 1, Item: 1, Weight: 4}, {User: 1, Item: 2, Weight: 2},
		{User: 2, Item: 2, Weight: 5}, {User: 2, Item: 3, Weight: 4},
		{User: 3, Item: 3, Weight: 3}, {User: 3, Item: 0, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testFleet(t testing.TB, n int, withCache bool) *Fleet {
	t.Helper()
	replicas := make([]*Replica, n)
	for i := range replicas {
		replicas[i] = &Replica{Graph: testGraph(t)}
		if withCache {
			replicas[i].Cache = cache.New[core.CacheEntry](64)
		}
	}
	f, err := NewFleet(replicas)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFleetValidation(t *testing.T) {
	if _, err := NewFleet(nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewFleet([]*Replica{{Graph: nil}}); err == nil {
		t.Fatal("graphless replica accepted")
	}
}

func TestFleetApplyRatingRoutesOneShard(t *testing.T) {
	f := testFleet(t, 4, false)
	added, epoch, shardIdx, err := f.ApplyRating(2, 0, 4.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("new edge not reported as added")
	}
	if want := Assign(2, 4); shardIdx != want {
		t.Fatalf("write landed on shard %d, want %d", shardIdx, want)
	}
	if epoch != 1 {
		t.Fatalf("written shard epoch = %d, want 1", epoch)
	}
	for i, st := range f.ShardStats() {
		want := uint64(0)
		if i == shardIdx {
			want = 1
		}
		if st.Epoch != want {
			t.Fatalf("shard %d epoch = %d, want %d (blast radius leaked)", i, st.Epoch, want)
		}
	}
	if f.Epoch() != 1 {
		t.Fatalf("fleet epoch = %d, want 1", f.Epoch())
	}
	// The edge is visible on the written shard only: per-user routing
	// keeps read-your-own-writes, the other replicas are untouched.
	if w := f.GraphFor(2).Weight(f.GraphFor(2).UserNode(2), f.GraphFor(2).ItemNode(0)); w != 4.5 {
		t.Fatalf("written shard does not see the write: weight %v", w)
	}
	other := f.Replica((shardIdx + 1) % 4).Graph
	if w := other.Weight(other.UserNode(2), other.ItemNode(0)); w != 0 {
		t.Fatalf("unwritten shard saw the write: weight %v", w)
	}
}

func TestFleetUniverseAndMergedPopularity(t *testing.T) {
	f := testFleet(t, 4, false)
	base := f.Replica(0).Graph.ItemPopularity()

	// Two writes for item 0 land on two different shards; the merged
	// count must see both (max would see only one).
	if _, _, _, err := f.ApplyRating(1, 0, 2, false); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := f.ApplyRating(2, 0, 2, false); err != nil {
		t.Fatal(err)
	}
	merged := f.MergedItemPopularity(base)
	if want := base[0] + 2; merged[0] != want {
		t.Fatalf("merged popularity of item 0 = %d, want %d", merged[0], want)
	}

	// Auto-grow on one shard only: the fleet universe is the union.
	if _, _, _, err := f.ApplyRating(5, 5, 3, true); err != nil { // shard 1 grows
		t.Fatal(err)
	}
	users, items := f.Universe()
	if users != 6 || items != 6 {
		t.Fatalf("fleet universe = (%d, %d), want (6, 6)", users, items)
	}
	merged = f.MergedItemPopularity(base)
	if len(merged) != 6 {
		t.Fatalf("merged popularity covers %d items, want 6", len(merged))
	}
	if merged[5] != 1 {
		t.Fatalf("grown item popularity = %d, want 1", merged[5])
	}
}

func TestFleetEvictStaleUsesOwnEpochs(t *testing.T) {
	f := testFleet(t, 2, true)
	rep0, rep1 := f.Replica(0), f.Replica(1)
	// One fingerprint-less entry per shard, built at each shard's current
	// epoch — these revalidate epoch-exactly.
	rep0.Cache.Put(cache.Key{User: 0, Algo: "AT", K: 5},
		core.CacheEntry{BuildEpoch: rep0.Graph.Epoch()})
	rep1.Cache.Put(cache.Key{User: 1, Algo: "AT", K: 5},
		core.CacheEntry{BuildEpoch: rep1.Graph.Epoch()})
	// A third entry on shard 0 whose fingerprint covers only item 1 — the
	// upcoming write (user 0, item 2) provably cannot touch it.
	survivor := core.CacheEntry{BuildEpoch: rep0.Graph.Epoch()}
	survivor.FP.Reset(rep0.Graph.WriteGen())
	survivor.FP.AddNode(rep0.Graph.ItemNode(1))
	rep0.Cache.Put(cache.Key{User: 2, Algo: "AT", K: 5}, survivor)
	// Bump shard 0's epoch only.
	if _, _, _, err := f.ApplyRating(0, 2, 1.5, false); err != nil {
		t.Fatal(err)
	}
	if dropped := f.EvictStale(); dropped != 1 {
		t.Fatalf("EvictStale dropped %d entries, want exactly shard 0's epoch-only 1", dropped)
	}
	if rep1.Cache.Len() != 1 {
		t.Fatal("shard 1's live entry was evicted against another shard's epoch")
	}
	if _, ok := rep0.Cache.Get(cache.Key{User: 2, Algo: "AT", K: 5}); !ok {
		t.Fatal("fingerprint-proven entry was evicted despite the write missing its subgraph")
	}
}

// stubRec is a per-shard Recommender double that records the users it
// served (and how many requests the whole router had in flight at once)
// and answers with a response identifying itself.
type stubRec struct {
	name  string
	id    int
	errOn int // user id that fails; -1 disables

	// inFlight / peak are shared by every stub of one router.
	inFlight, peak *atomic.Int64

	mu    sync.Mutex
	users []int
}

func (s *stubRec) Name() string { return s.name }

func (s *stubRec) ScoreItems(u int) ([]float64, error) {
	return []float64{float64(s.id)}, nil
}

func (s *stubRec) Recommend(req core.Request, _ *graph.Fingerprint) (core.Response, error) {
	now := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		p := s.peak.Load()
		if now <= p || s.peak.CompareAndSwap(p, now) {
			break
		}
	}
	runtime.Gosched() // let the other workers overlap
	if req.User == s.errOn {
		return core.Response{}, fmt.Errorf("stub shard %d: boom on user %d", s.id, req.User)
	}
	s.mu.Lock()
	s.users = append(s.users, req.User)
	s.mu.Unlock()
	return core.Response{
		Items: []core.Scored{{Item: req.User, Score: float64(s.id)}},
		Epoch: uint64(s.id),
		Algo:  s.name,
	}, nil
}

func newStubRouter(t testing.TB, n int) (*Router, []*stubRec) {
	t.Helper()
	stubs := make([]*stubRec, n)
	shards := make([]core.Recommender, n)
	var inFlight, peak atomic.Int64
	for i := range stubs {
		stubs[i] = &stubRec{name: "stub", id: i, errOn: -1, inFlight: &inFlight, peak: &peak}
		shards[i] = stubs[i]
	}
	r, err := NewRouter("stub", shards)
	if err != nil {
		t.Fatal(err)
	}
	return r, stubs
}

// routedBatch serves one option-free k=1 request per user through the
// one fan-out over the router.
func routedBatch(r *Router, users []int, parallelism int) ([]core.Response, error) {
	reqs := make([]core.Request, len(users))
	for i, u := range users {
		reqs[i] = core.Request{User: u, K: 1}
	}
	return core.ServeBatch(reqs, parallelism, func(req core.Request) (core.Response, error) {
		return r.Recommend(req, nil)
	})
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter("", []core.Recommender{&stubRec{errOn: -1}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewRouter("x", nil); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := NewRouter("x", []core.Recommender{nil}); err == nil {
		t.Fatal("nil shard accepted")
	}
}

func TestRouterRoutesByUser(t *testing.T) {
	r, stubs := newStubRouter(t, 4)
	if r.Name() != "stub" {
		t.Fatalf("name %q", r.Name())
	}
	if scores, err := r.ScoreItems(6); err != nil || scores[0] != 2 { // shard 2
		t.Fatalf("ScoreItems routed wrong: %v %v", scores, err)
	}
	for u := 0; u < 20; u++ {
		resp, err := r.Recommend(core.Request{User: u, K: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int(resp.Epoch), Assign(u, 4); got != want {
			t.Fatalf("user %d served by shard %d, want %d", u, got, want)
		}
	}
	for i, st := range stubs {
		for _, u := range st.users {
			if Assign(u, 4) != i {
				t.Fatalf("shard %d served user %d (belongs to %d)", i, u, Assign(u, 4))
			}
		}
	}
}

func TestRouterBatchMergesInInputOrder(t *testing.T) {
	r, stubs := newStubRouter(t, 4)
	// Shuffled, duplicated users across all shards.
	users := []int{7, 0, 3, 3, 10, 1, 6, 2, 9, 5, 4, 8, 0, 11}
	out, err := routedBatch(r, users, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(users) {
		t.Fatalf("got %d responses for %d requests", len(out), len(users))
	}
	for i, u := range users {
		want := core.Response{
			Items: []core.Scored{{Item: u, Score: float64(Assign(u, 4))}},
			Epoch: uint64(Assign(u, 4)),
			Algo:  "stub",
		}
		if !reflect.DeepEqual(out[i], want) {
			t.Fatalf("response %d (user %d) = %+v, want %+v", i, u, out[i], want)
		}
	}
	// parallelism bounds the workers across the WHOLE fan-out, not per
	// shard: four shards with work never ran more than two queries at once.
	if peak := stubs[0].peak.Load(); peak > 2 {
		t.Fatalf("%d shard queries in flight at parallelism 2", peak)
	}
}

func TestRouterBatchShardErrorAborts(t *testing.T) {
	r, stubs := newStubRouter(t, 4)
	stubs[2].errOn = 6 // user 6 lives on shard 2
	if _, err := routedBatch(r, []int{0, 1, 6, 3}, 0); err == nil {
		t.Fatal("failing shard did not abort the batch")
	}
}
