// Live-serving tests over the one serving graph: reads under a write
// flood, cache precision on a clustered world, the epoch invariant across
// compaction, the eager stale-entry sweep, and base swaps racing readers
// and writers.

package longtail

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"longtailrec/internal/cache"
	"longtailrec/internal/core"
)

// TestReadsSurviveWriteFlood: a write-heavy sweep whose user stride is
// coprime to the user count touches every user's neighbourhood, the
// cache's worst case, while the interleaved reads must keep returning
// lists.
func TestReadsSurviveWriteFlood(t *testing.T) {
	w := servingTestWorld(t)
	cfg := servingTestConfig()
	cfg.CacheSize = 1024
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	// Re-rating an edge with its current score moves no epoch, so the
	// bound is one-sided: every epoch tick needs an accepted write.
	if e := sys.Epoch(); e == 0 || e > uint64(writes) {
		t.Errorf("epoch %d after %d accepted writes", e, writes)
	}
}

// TestCachePrecisionClusteredFloor: on the clustered world (8 islands with
// no ratings between them) every write bumps the one epoch, so an entry
// can only survive a write because its fingerprint proves the write could
// not reach its subgraph. One in-cluster write per 8 reads over one user
// per island must keep the hit share at or above 0.60 and must exercise
// the fingerprint path.
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
		t.Error("no fingerprint-validated hit: the precision path never ran")
	}
}

// TestEpochInvariantAcrossCompaction pins the epoch contract over a fold:
// the epoch stays "total accepted writes", compaction moves no epoch and
// clears the overlay, every entry cached before the fold is still served
// after it, and a fold with nothing pending keeps the base CSR.
func TestEpochInvariantAcrossCompaction(t *testing.T) {
	w := servingTestWorld(t)
	cfg := servingTestConfig()
	cfg.CacheSize = 1024
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	numUsers := w.Data.NumUsers()
	readAll := func() (hits int) {
		t.Helper()
		for u := 0; u < numUsers; u++ {
			resp, err := sys.Recommend(ctx, "AT", Request{User: u, K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if resp.CacheHit {
				hits++
			}
		}
		return hits
	}

	// Off-grid scores, so no upsert is an identical-weight no-op.
	const writes = 6
	for i := 0; i < writes; i++ {
		if _, _, err := sys.ApplyRating(1+4*(i%3), i, 4.25+float64(i)/8); err != nil {
			t.Fatal(err)
		}
	}
	readAll() // cache every user against the written graph
	before := sys.ServingStats()
	if before.Epoch != writes || before.PendingWrites != writes {
		t.Fatalf("epoch %d, pending %d before the fold, want %d and %d", before.Epoch, before.PendingWrites, writes, writes)
	}

	sys.CompactGraph()
	after := sys.ServingStats()
	if after.Epoch != before.Epoch {
		t.Fatalf("epoch moved across compaction: %d -> %d", before.Epoch, after.Epoch)
	}
	if after.PendingWrites != 0 {
		t.Fatalf("%d pending writes after the fold", after.PendingWrites)
	}
	if hits := readAll(); hits != numUsers {
		t.Fatalf("%d of %d users served from cache after the fold: it invalidated entries", hits, numUsers)
	}

	adj := sys.Graph().Adjacency()
	sys.CompactGraph()
	if sys.Graph().Adjacency() != adj {
		t.Fatal("empty-overlay fold rebuilt the base CSR")
	}
}

// TestEvictStaleCacheKeepsProvenEntries: the eager sweep drops an entry
// a write made stale and keeps one whose fingerprint proves the write
// missed its subgraph.
func TestEvictStaleCacheKeepsProvenEntries(t *testing.T) {
	w := servingTestWorld(t)
	cfg := servingTestConfig()
	cfg.CacheSize = 64
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := sys.Graph()
	// A fingerprint-less entry revalidates epoch-exactly; the other's
	// fingerprint covers only item 1, which the write below misses.
	stale := cache.Key{User: 0, Algo: "AT", K: 5}
	sys.results.Put(stale, core.CacheEntry{BuildEpoch: g.Epoch()})
	proven := core.CacheEntry{BuildEpoch: g.Epoch()}
	proven.FP.Reset(g.WriteGen())
	proven.FP.AddNode(g.ItemNode(1))
	survivor := cache.Key{User: 2, Algo: "AT", K: 5}
	sys.results.Put(survivor, proven)

	if _, _, err := sys.ApplyRating(0, 2, 1.5); err != nil {
		t.Fatal(err)
	}
	if dropped := sys.EvictStaleCache(); dropped != 1 {
		t.Fatalf("EvictStaleCache dropped %d entries, want the 1 stale one", dropped)
	}
	if _, ok := sys.results.Get(survivor); !ok {
		t.Fatal("fingerprint-proven entry was evicted despite the write missing its subgraph")
	}
	if _, ok := sys.results.Get(stale); ok {
		t.Fatal("stale entry survived the sweep")
	}
}

// TestConcurrentBaseSwapRaces races a writer and a compaction/refresh loop
// (both swap the base out from under readers) against readers. Run under
// -race via make race: no torn reads, no errors — and once quiesced, the
// responses are byte-identical to a control system that applied the same
// stream without ever racing.
func TestConcurrentBaseSwapRaces(t *testing.T) {
	w := servingTestWorld(t)
	cfg := servingTestConfig()
	cfg.WALDir = t.TempDir()
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	numUsers, numItems := w.Data.NumUsers(), w.Data.NumItems()

	type writeOp struct {
		user, item int
		score      float64
	}
	var script []writeOp
	for i := 0; i < 60; i++ {
		script = append(script, writeOp{
			user:  1 + 4*(i%3),
			item:  (i * 7) % numItems,
			score: 1 + float64(i%9)/2,
		})
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	wg.Add(1)
	go func() { // the write stream
		defer wg.Done()
		for _, op := range script {
			if _, _, err := sys.ApplyRating(op.user, op.item, op.score); err != nil {
				errc <- fmt.Errorf("write (%d,%d): %w", op.user, op.item, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // the base-swap loop: folds and checkpoint refreshes
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if i%2 == 0 {
				sys.CompactGraph()
			} else if err := sys.SnapshotRefresh(); err != nil {
				errc <- fmt.Errorf("refresh: %w", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // readers across every swap
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for u := 0; u < numUsers; u++ {
					resp, err := sys.Recommend(ctx, "AT", Request{User: u, K: 5})
					if err != nil {
						errc <- fmt.Errorf("read user %d: %w", u, err)
						return
					}
					if len(resp.Items) == 0 {
						errc <- fmt.Errorf("user %d: empty response mid-swap", u)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesce and compare against a never-raced control fed the same
	// stream.
	sys.CompactGraph()
	ctlCfg := cfg
	ctlCfg.WALDir = ""
	control, err := NewSystem(w.Data, ctlCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range script {
		if _, _, err := control.ApplyRating(op.user, op.item, op.score); err != nil {
			t.Fatal(err)
		}
	}
	control.CompactGraph()
	for u := 0; u < numUsers; u++ {
		got, gerr := sys.Recommend(ctx, "AT", Request{User: u, K: 5})
		want, werr := control.Recommend(ctx, "AT", Request{User: u, K: 5})
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("user %d: error divergence: %v vs %v", u, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Fatalf("user %d: raced system diverged from quiesced control:\n raced:   %s\n control: %s", u, gb, wb)
		}
	}
}
