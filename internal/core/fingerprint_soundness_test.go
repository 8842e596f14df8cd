// Soundness property tests for fingerprint cache invalidation: across
// randomized write/read interleavings the fingerprint-revalidating cache
// must NEVER serve a response that a fresh compute (equivalently: the old
// epoch-keyed cache, which recomputed after every write) would have
// produced differently. False retention — a cached entry surviving a
// write that actually changed its result — is the bug class these tests
// exist to catch; false invalidation only costs a recompute and is not an
// error. A fuzz target drives the same harness from a byte stream
// (`make fuzz` / the CI fuzz smoke explore it coverage-guided).

package core

import (
	"math/rand"
	"reflect"
	"testing"

	"longtailrec/internal/cache"
	"longtailrec/internal/graph"
)

// twoClusterGraph builds a graph of two fully disconnected rating
// clusters: users 0-2 over items 0-2, users 3-5 over items 3-5. Writes
// confined to one cluster provably cannot change the other cluster's
// walks, so fingerprint revalidation has retention to prove — and a
// cross-cluster write merges the components, which the soundness check
// must survive too.
func twoClusterGraph(t testing.TB) *graph.Bipartite {
	t.Helper()
	g, err := graph.FromRatings(6, 6, []graph.Rating{
		{User: 0, Item: 0, Weight: 5}, {User: 0, Item: 1, Weight: 3},
		{User: 1, Item: 1, Weight: 4}, {User: 1, Item: 2, Weight: 2},
		{User: 2, Item: 0, Weight: 4}, {User: 2, Item: 2, Weight: 5},
		{User: 3, Item: 3, Weight: 5}, {User: 3, Item: 4, Weight: 3},
		{User: 4, Item: 4, Weight: 4}, {User: 4, Item: 5, Weight: 2},
		{User: 5, Item: 3, Weight: 4}, {User: 5, Item: 5, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkSoundness compares one cached response against a fresh uncached
// compute over the same graph — the golden the fingerprint cache must
// never diverge from.
func checkSoundness(t testing.TB, golden *AbsorbingTime, cached *CachedRecommender, req Request, step int) {
	t.Helper()
	got, err := cached.Recommend(req, nil)
	if err != nil {
		t.Fatalf("step %d: cached request %+v: %v", step, req, err)
	}
	want, err := golden.Recommend(req, nil)
	if err != nil {
		t.Fatalf("step %d: golden request %+v: %v", step, req, err)
	}
	if !reflect.DeepEqual(got.Items, want.Items) || got.Algo != want.Algo {
		t.Fatalf("step %d: UNSOUND retention for %+v (cacheHit=%v):\ncached %+v\nfresh  %+v",
			step, req, got.CacheHit, got.Items, want.Items)
	}
}

// TestCachedFingerprintSoundness runs seeded random write/read
// interleavings on the two-cluster graph and checks every read against a
// fresh compute. Most writes stay in their user's cluster (retention to
// prove); a minority cross clusters and merge the components mid-run.
// The run must both stay sound AND actually exercise the fingerprint
// path (validated hits > 0) — a vacuous pass is a test bug.
func TestCachedFingerprintSoundness(t *testing.T) {
	var totalFPHits uint64
	for seed := int64(1); seed <= 6; seed++ {
		g := twoClusterGraph(t)
		at := NewAbsorbingTime(g, WalkOptions{Iterations: 10})
		golden := NewAbsorbingTime(g, WalkOptions{Iterations: 10})
		cached, err := NewCachedRecommender(at, g, cache.New[CacheEntry](128))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 120; step++ {
			switch rng.Intn(4) {
			case 0: // in-cluster write
				u := rng.Intn(6)
				i := (u/3)*3 + rng.Intn(3)
				if _, err := g.UpsertRating(u, i, 1+float64(rng.Intn(5))); err != nil {
					t.Fatal(err)
				}
			case 1: // occasionally a cross-cluster write (merges components)
				if rng.Intn(4) == 0 {
					u := rng.Intn(6)
					i := ((u/3)^1)*3 + rng.Intn(3)
					if _, err := g.UpsertRating(u, i, 1+float64(rng.Intn(5))); err != nil {
						t.Fatal(err)
					}
				}
			default: // read, checked against a fresh compute
				req := Request{User: rng.Intn(6), K: 1 + rng.Intn(4)}
				checkSoundness(t, golden, cached, req, step)
			}
		}
		totalFPHits += cached.CacheStats().FingerprintHits
	}
	if totalFPHits == 0 {
		t.Fatal("no fingerprint-validated hits across all seeds: the precision path never ran")
	}
}

// TestCachedFingerprintSoundnessDense is the same property on the
// Figure 2 graph — one connected component, where every subgraph covers
// the whole graph and the fingerprint path must degrade to recomputing
// after every write without ever serving a stale byte.
func TestCachedFingerprintSoundnessDense(t *testing.T) {
	g := figure2Graph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 10})
	golden := NewAbsorbingTime(g, WalkOptions{Iterations: 10})
	cached, err := NewCachedRecommender(at, g, cache.New[CacheEntry](128))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 150; step++ {
		if rng.Intn(3) == 0 {
			u, i := rng.Intn(g.NumUsers()), rng.Intn(g.NumItems())
			if _, err := g.UpsertRating(u, i, 1+float64(rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		} else {
			req := Request{User: rng.Intn(g.NumUsers()), K: 1 + rng.Intn(4)}
			checkSoundness(t, golden, cached, req, step)
		}
	}
}

// TestFingerprintCoversSeedReadGap plays, step by step instead of through
// a scheduler race, the one interleaving the cache contract forbids: the
// engine reads S_q, a write to the query user's own row lands, and only
// then does Extract take the graph lock. The result is computed with the
// old absorbing set, so its fingerprint must not revalidate as Fresh —
// which holds because the watermark is read before the seeds. Stamped
// with the watermark Extract captures instead (what the engine did before
// readSeeds existed), the very same entry is ruled Fresh.
func TestFingerprintCoversSeedReadGap(t *testing.T) {
	g := twoClusterGraph(t)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: 10})
	scr := at.eng.pool.Get().(*engineScratch)
	defer at.eng.pool.Put(scr)
	const u = 0
	seeds, gen, err := at.eng.readSeeds(scr, u, at.spec)
	if err != nil {
		t.Fatal(err)
	}
	// User 0 (items 0 and 1 so far) newly rates item 2 of their cluster.
	if added, err := g.UpsertRating(u, 2, 4); err != nil || !added {
		t.Fatalf("write in the gap: added=%v err=%v", added, err)
	}
	var fp graph.Fingerprint
	if _, err := at.eng.scoreSeeded(nil, scr, u, seeds, gen, at.spec, &fp); err != nil {
		t.Fatal(err)
	}
	if st := g.CheckFingerprint(&fp); st == graph.FingerprintFresh {
		t.Fatal("a result computed with the absorbing set from before a write to the user's own row revalidates as Fresh")
	}
	late := fp
	late.Gen = g.WriteGen() // nothing wrote since, so this is Extract's own watermark
	if st := g.CheckFingerprint(&late); st != graph.FingerprintFresh {
		t.Fatalf("extraction-time watermark gives status %d: the interleaving no longer shows the gap", st)
	}
}

// FuzzFingerprintSoundness drives the soundness harness from a fuzz byte
// stream: each op byte pair picks a write (in- or cross-cluster, any
// score) or a checked read. Any input that makes the cached path serve a
// response a fresh compute would not have produced is a crashing find.
func FuzzFingerprintSoundness(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Add([]byte{0x2a, 0x11, 0x93, 0x5c, 0x77, 0x08, 0xe1, 0x3f, 0x42, 0x9d})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 256 {
			return
		}
		g := twoClusterGraph(t)
		at := NewAbsorbingTime(g, WalkOptions{Iterations: 8})
		golden := NewAbsorbingTime(g, WalkOptions{Iterations: 8})
		cached, err := NewCachedRecommender(at, g, cache.New[CacheEntry](64))
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p+1 < len(data); p += 2 {
			op, arg := data[p], int(data[p+1])
			u := arg % 6
			switch op % 3 {
			case 0: // in-cluster write
				i := (u/3)*3 + (arg/6)%3
				if _, err := g.UpsertRating(u, i, 1+float64(op%5)); err != nil {
					t.Fatal(err)
				}
			case 1: // unrestricted write (may merge the clusters)
				if _, err := g.UpsertRating(u, (arg/6)%6, 1+float64(op%5)); err != nil {
					t.Fatal(err)
				}
			default: // checked read
				checkSoundness(t, golden, cached, Request{User: u, K: 1 + (arg/6)%4}, p)
			}
		}
	})
}
