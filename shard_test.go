// Sharded-serving tests: routing correctness (a sharded fleet must be
// indistinguishable from the single-replica stack on a static corpus),
// write-invalidation blast radius (a write must kill only its own
// shard's cached results) and cross-shard race isolation.

package longtail

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"longtailrec/internal/lda"
	"longtailrec/internal/synth"
)

// shardTestWorld is the shared corpus of the sharding tests: big enough
// for meaningful walks, small enough to replicate 4x cheaply.
func shardTestWorld(t testing.TB) *World {
	t.Helper()
	w, err := synth.Generate(synth.Config{
		NumUsers:           60,
		NumItems:           80,
		NumGenres:          4,
		MeanRatingsPerUser: 12,
		MinRatingsPerUser:  4,
		Seed:               99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func shardTestSystem(t testing.TB, w *World, shards, cacheSize int) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 2, Iterations: 5}
	cfg.Seed = 7
	cfg.ShardCount = shards
	cfg.CacheSize = cacheSize
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.ShardCount() != max(shards, 1) {
		t.Fatalf("ShardCount() = %d, want %d", sys.ShardCount(), max(shards, 1))
	}
	return sys
}

// TestShardedGoldenEquivalence pins the core routing contract: for the
// same dataset and the same request options, a 4-shard system returns
// byte-identical responses to the unsharded system — every replica is a
// faithful copy and routing only picks which copy answers.
func TestShardedGoldenEquivalence(t *testing.T) {
	w := shardTestWorld(t)
	sys1 := shardTestSystem(t, w, 1, 0)
	sys4 := shardTestSystem(t, w, 4, 0)
	ctx := context.Background()

	requests := []Request{
		{K: 5},
		{K: 5, ExcludeItems: []int{1, 2, 3}},
		{K: 5, CandidateItems: []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}},
		{K: 5, LongTailOnly: 0.8},
	}
	for _, algo := range []string{"HT", "AT", "AC1", "DPPR", "MostPopular"} {
		for _, tmpl := range requests {
			for u := 0; u < w.Data.NumUsers(); u++ {
				req := tmpl
				req.User = u
				r1, err1 := sys1.Recommend(ctx, algo, req)
				r4, err4 := sys4.Recommend(ctx, algo, req)
				if (err1 == nil) != (err4 == nil) {
					t.Fatalf("%s user %d: error divergence: %v vs %v", algo, u, err1, err4)
				}
				if err1 != nil {
					continue
				}
				b1, _ := json.Marshal(r1)
				b4, _ := json.Marshal(r4)
				if string(b1) != string(b4) {
					t.Fatalf("%s user %d opts %+v: sharded response diverged:\n 1: %s\n 4: %s",
						algo, u, tmpl, b1, b4)
				}
			}
		}
	}
}

// TestShardedBatchGoldenEquivalence extends the golden contract to the
// fan-out batch path: responses merge back in input order and match the
// unsharded batch entry for entry.
func TestShardedBatchGoldenEquivalence(t *testing.T) {
	w := shardTestWorld(t)
	sys1 := shardTestSystem(t, w, 1, 0)
	sys4 := shardTestSystem(t, w, 4, 0)
	ctx := context.Background()

	reqs := make([]Request, 0, w.Data.NumUsers())
	for u := w.Data.NumUsers() - 1; u >= 0; u-- { // deliberately not shard-ordered
		reqs = append(reqs, Request{User: u, K: 5})
	}
	r1, err := sys1.RecommendRequests(ctx, "AT", reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := sys4.RecommendRequests(ctx, "AT", reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatal("sharded batch responses diverged from the unsharded batch")
	}
}

// TestShardedWriteInvalidationBlastRadius is the acceptance scenario:
// with 4 shards, one live write moves exactly one shard's epoch and
// leaves the other 3 shards' cached entries live.
func TestShardedWriteInvalidationBlastRadius(t *testing.T) {
	w := shardTestWorld(t)
	sys := shardTestSystem(t, w, 4, 1024)
	ctx := context.Background()
	numUsers := w.Data.NumUsers()

	// Warm every user's entry, then verify the whole panel hits.
	for round := 0; round < 2; round++ {
		for u := 0; u < numUsers; u++ {
			resp, err := sys.Recommend(ctx, "AT", Request{User: u, K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if round == 1 && !resp.CacheHit {
				t.Fatalf("user %d not cached after warm round", u)
			}
		}
	}

	writer := 2
	writtenShard := sys.ShardFor(writer)
	before := sys.ServingStats()
	// A score off the synthetic rating grid, so the upsert can never be
	// an identical-weight no-op (which would not move the epoch).
	if _, epoch, err := sys.ApplyRating(writer, 0, 4.25); err != nil {
		t.Fatal(err)
	} else if epoch != before.Shards[writtenShard].Epoch+1 {
		t.Fatalf("write epoch = %d, want shard epoch %d+1", epoch, before.Shards[writtenShard].Epoch)
	}

	after := sys.ServingStats()
	for i, sh := range after.Shards {
		want := before.Shards[i].Epoch
		if i == writtenShard {
			want++
		}
		if sh.Epoch != want {
			t.Fatalf("shard %d epoch = %d, want %d (invalidation leaked across shards)", i, sh.Epoch, want)
		}
	}
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("fleet epoch = %d, want %d", after.Epoch, before.Epoch+1)
	}

	// The other 3 shards' entries are still served from cache; only the
	// written shard recomputes.
	hitsBefore := sys.ServingStats().Cache.Hits
	warmHits := 0
	for u := 0; u < numUsers; u++ {
		resp, err := sys.Recommend(ctx, "AT", Request{User: u, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if sys.ShardFor(u) == writtenShard {
			if resp.CacheHit {
				t.Fatalf("user %d on the written shard served a stale cached result", u)
			}
		} else {
			if !resp.CacheHit {
				t.Fatalf("user %d on an unwritten shard lost its cached entry", u)
			}
			warmHits++
		}
	}
	if got := sys.ServingStats().Cache.Hits - hitsBefore; got != uint64(warmHits) {
		t.Fatalf("cache hit counter moved by %d, want %d (only unwritten shards hit)", got, warmHits)
	}
	if warmHits == 0 {
		t.Fatal("test corpus left no users on unwritten shards")
	}
}

// TestShardedPhantomUserServedAsCold pins the dense-fill gap semantics:
// an auto-grow write far past the universe edge admits the ids between
// on the WRITING user's shard only, so a gap id routing to another shard
// is unknown there. The serving layer must treat it as the unsharded
// stack treats a dense-filled, rating-less user — cold (fallback when
// allowed), never a 404 that aborts a whole batch.
func TestShardedPhantomUserServedAsCold(t *testing.T) {
	w := shardTestWorld(t)
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 2, Iterations: 5}
	cfg.Seed = 7
	cfg.ShardCount = 4
	cfg.AutoGrow = true
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := w.Data.NumUsers()

	// Writer (base+8) lands on its own shard and dense-fills base..base+8
	// there; pick a gap user whose home shard is a different one.
	writer := base + 8
	if _, _, err := sys.ApplyRating(writer, 0, 4.25); err != nil {
		t.Fatal(err)
	}
	phantom := -1
	for u := base; u < writer; u++ {
		if sys.ShardFor(u) != sys.ShardFor(writer) {
			phantom = u
			break
		}
	}
	if phantom < 0 {
		t.Fatal("no gap user on a foreign shard")
	}

	resp, err := sys.Recommend(ctx, "AT", Request{User: phantom, K: 5, AllowFallback: true})
	if err != nil {
		t.Fatalf("phantom user with fallback failed: %v", err)
	}
	if !resp.Fallback {
		t.Fatal("phantom user not served the popularity fallback")
	}
	if _, err := sys.Recommend(ctx, "AT", Request{User: phantom, K: 5}); !errors.Is(err, ErrColdUser) {
		t.Fatalf("phantom user without fallback: got %v, want ErrColdUser", err)
	}

	// A batch mixing real and phantom users must not abort: real entries
	// are served, the phantom takes the fallback.
	resps, err := sys.RecommendRequests(ctx, "AT", []Request{
		{User: 0, K: 5},
		{User: phantom, K: 5, AllowFallback: true},
		{User: 1, K: 5},
	}, 2)
	if err != nil {
		t.Fatalf("batch with phantom user aborted: %v", err)
	}
	if len(resps[0].Items) == 0 || len(resps[2].Items) == 0 {
		t.Fatal("real users in a phantom-carrying batch were not served")
	}
	if !resps[1].Fallback {
		t.Fatal("phantom batch entry not degraded to the fallback")
	}
}

// TestConcurrentShardedWriteIsolation races writers confined to one
// shard against readers on every shard (run under -race via make race):
// reads must stay consistent and only the written shard's epoch may
// move.
func TestConcurrentShardedWriteIsolation(t *testing.T) {
	w := shardTestWorld(t)
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 2, Iterations: 5}
	cfg.Seed = 7
	cfg.ShardCount = 4
	cfg.CacheSize = 256
	cfg.AutoGrow = true // growth writes race the merged-popularity readers
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	numUsers, numItems := w.Data.NumUsers(), w.Data.NumItems()

	writer := 1 // users 1, 5, 9, ... all live on shard 1
	writtenShard := sys.ShardFor(writer)

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			u := writer + 4*(i%3) // 1, 5, 9: same shard, single writer per graph
			item := i % numItems
			if i%5 == 4 {
				item = numItems + i/5 // auto-grow: extend shard 1's item universe
			}
			if _, _, err := sys.ApplyRating(u, item, 1+float64(i%5)); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := 0; u < numUsers; u++ {
				if _, err := sys.Recommend(ctx, "AT", Request{User: u, K: 5}); err != nil {
					errc <- err
					return
				}
				// The fleet-wide merged popularity must stay safe while a
				// shard's item universe grows under it.
				if pop := sys.LiveItemPopularity(); len(pop) < numItems {
					errc <- fmt.Errorf("merged popularity shrank to %d items", len(pop))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := sys.ServingStats()
	for i, sh := range st.Shards {
		if i == writtenShard {
			if sh.Epoch == 0 {
				t.Fatal("written shard's epoch did not move")
			}
			continue
		}
		if sh.Epoch != 0 {
			t.Fatalf("shard %d epoch = %d, want 0: writes to shard %d leaked", i, sh.Epoch, writtenShard)
		}
	}
}

// TestWriteFloodSpraysEveryShard: a write-heavy sweep whose user stride is
// coprime to the user count visits every user, so with users assigned to
// shards by id every shard's epoch moves — the cache's worst case — while
// the interleaved reads must keep returning lists.
func TestWriteFloodSpraysEveryShard(t *testing.T) {
	w := shardTestWorld(t)
	sys := shardTestSystem(t, w, 4, 1024)
	ctx := context.Background()
	numUsers, numItems := w.Data.NumUsers(), w.Data.NumItems()

	const stride = 7 // coprime to the 60 users
	writes, writer := 0, 0
	for i := 0; i < 150; i++ {
		if i%5 != 4 { // 4 writes per read
			if _, _, err := sys.ApplyRating(writer, (3*i)%numItems, 1+float64(i%5)); err != nil {
				t.Fatalf("flood write %d (user %d) rejected: %v", i, writer, err)
			}
			writes++
			writer = (writer + stride) % numUsers
			continue
		}
		u := (7*i + 1) % numUsers
		resp, err := sys.Recommend(ctx, "AT", Request{User: u, K: 10})
		if err != nil {
			t.Fatalf("read %d (user %d) under the flood: %v", i, u, err)
		}
		if len(resp.Items) == 0 {
			t.Fatalf("read %d (user %d) under the flood returned an empty list", i, u)
		}
	}

	st := sys.ServingStats()
	for i, sh := range st.Shards {
		if sh.Epoch == 0 {
			t.Errorf("shard %d saw no write: the sweep does not spray the fleet", i)
		}
	}
	// Re-rating an edge with its current score moves no epoch, so the
	// bound is one-sided: every epoch tick needs an accepted write.
	if st.Epoch == 0 || st.Epoch > uint64(writes) {
		t.Errorf("fleet epoch %d after %d accepted writes", st.Epoch, writes)
	}
}

// TestCachePrecisionClusteredFloor: on the clustered world (8 islands with
// no ratings between them) at ONE shard, every write bumps the only epoch,
// so an entry can only survive a write because its fingerprint proves the
// write could not reach its subgraph. One in-cluster write per 8 reads
// over one user per island must keep the hit share at or above 0.60 and
// must exercise the fingerprint path.
func TestCachePrecisionClusteredFloor(t *testing.T) {
	w, err := GenerateWorld("clustered", 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CacheSize = 1024
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	uPer, iPer := w.Config.UsersPerCluster(), w.Config.ItemsPerCluster()
	users := make([]int, w.Config.Clusters)
	for c := range users {
		users[c] = c * uPer
	}
	read := func(u int) {
		t.Helper()
		if _, err := sys.Recommend(ctx, "AT", Request{User: u, K: 10}); err != nil {
			t.Fatalf("read of user %d: %v", u, err)
		}
	}
	for _, u := range users { // warm: the one guaranteed miss per user
		read(u)
	}
	warm := sys.ServingStats().Cache

	for i := 0; i < 144; i++ {
		if i%9 == 8 {
			u := users[i%len(users)]
			item := (u/uPer)*iPer + i%iPer // the writer's own island
			if _, _, err := sys.ApplyRating(u, item, 1+float64(i%5)); err != nil {
				t.Fatalf("write %d (user %d, item %d): %v", i, u, item, err)
			}
			continue
		}
		read(users[(7*i+1)%len(users)])
	}

	// One goroutine, so no lookup is ever shared: hits and misses are all.
	st := sys.ServingStats().Cache
	hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
	if hits+misses != 128 {
		t.Fatalf("cache saw %d lookups, want 128", hits+misses)
	}
	if share := float64(hits) / 128; share < 0.60 {
		t.Errorf("mixed hit share %.3f under the 0.60 floor: fingerprints are not retaining other islands' entries (%+v)", share, st)
	}
	if st.FingerprintHits == warm.FingerprintHits {
		t.Error("no fingerprint-validated hit at one shard: the precision path never ran")
	}
}
