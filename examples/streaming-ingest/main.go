// Streaming ingest: build a corpus from an event stream, persist it, and
// serve it live — the data-pipeline half of a deployment.
//
// A rating stream replays out of order and with re-ratings; the Builder
// resolves duplicates by policy (KeepLast here, event-stream semantics).
// The materialized dataset is snapshotted to a binary container, reloaded,
// and served: top-k for a user plus "people who liked X also liked".
//
// The second half drives the LIVE path (see README.md): the serving system
// keeps a result cache keyed by graph epoch, new ratings stream in through
// System.ApplyRating (the programmatic twin of POST /v1/ratings), each
// write bumps the epoch and invalidates cached results, and the delta
// overlay compacts back into the CSR on a threshold.
//
// Run with: go run ./examples/streaming-ingest
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"longtailrec"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Simulate an event stream from the synthetic world: every rating
	// arrives as an event, 5% of users later revise their score.
	world, err := longtail.GenerateMovieLensLike(33)
	if err != nil {
		return err
	}
	events := world.Data.Ratings()
	rng := rand.New(rand.NewSource(33))
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

	b := longtail.NewBuilder(longtail.KeepLast)
	revisions := 0
	for k, e := range events {
		if err := b.Add(e.User, e.Item, e.Score); err != nil {
			return err
		}
		// Occasional re-rating: the newest score must win.
		if k%20 == 0 {
			revised := e.Score/2 + 1
			if err := b.Add(e.User, e.Item, revised); err != nil {
				return err
			}
			revisions++
		}
	}
	data, err := b.Build(world.Data.NumUsers(), world.Data.NumItems())
	if err != nil {
		return err
	}
	fmt.Printf("ingested %d events (%d re-ratings) -> %d distinct ratings\n",
		len(events)+revisions, revisions, data.NumRatings())

	// Snapshot and reload — the persistence boundary.
	dir, err := os.MkdirTemp("", "ltr-stream")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "snapshot.ltrz")
	if err := longtail.SaveDatasetFile(snap, data); err != nil {
		return err
	}
	reloaded, err := longtail.LoadDatasetFile(snap)
	if err != nil {
		return err
	}
	stats := reloaded.Summarize()
	fmt.Printf("snapshot %s: %d users / %d items / %d ratings (%.0f%% of items in the 20%% tail)\n",
		filepath.Base(snap), stats.NumUsers, stats.NumItems, stats.NumRatings, 100*stats.TailItemFraction)

	// Serve from the reloaded snapshot, production-shaped: result cache on
	// (ServingConfig), delta overlay compacting every 64 live writes.
	sys, err := longtail.NewSystem(reloaded, longtail.ServingConfig(1024, 64))
	if err != nil {
		return err
	}
	const user = 7
	recs, err := longtail.RecommendItems(sys.AT(), user, 5)
	if err != nil {
		return err
	}
	pop := reloaded.ItemPopularity()
	fmt.Printf("\ntop-5 for user %d by Absorbing Time:\n", user)
	for rank, r := range recs {
		fmt.Printf("  %d. item %-5d (popularity %d)\n", rank+1, r.Item, pop[r.Item])
	}
	if len(recs) == 0 {
		return fmt.Errorf("no recommendations for user %d", user)
	}

	// Item-to-item: the "customers who liked this" panel for the top pick.
	sims, err := sys.SimilarItems(recs[0].Item, 5)
	if err != nil {
		return err
	}
	fmt.Printf("\npeople who liked item %d also liked:\n", recs[0].Item)
	for _, s := range sims {
		fmt.Printf("  item %-5d cosine %.3f (popularity %d)\n", s.Item, s.Similarity, pop[s.Item])
	}

	// --- The live-update flow ---------------------------------------------
	// 1. Repeat queries against an unchanged graph hit the epoch-keyed
	//    result cache: the walk recomputes nothing.
	at := sys.AT()
	for q := 0; q < 3; q++ { // one miss, then hits
		if _, err := longtail.RecommendItems(at, user, 5); err != nil {
			return err
		}
	}
	st := sys.ServingStats()
	fmt.Printf("\nlive serving: epoch %d, cache %d hits / %d misses\n",
		st.Epoch, st.Cache.Hits, st.Cache.Misses)

	// 2. New ratings stream in. Each accepted write bumps the graph epoch,
	//    so every cached result computed before it stops being served.
	tail := recs[len(recs)-1].Item
	added, epoch, err := sys.ApplyRating(user, tail, 5)
	if err != nil {
		return err
	}
	fmt.Printf("live write: user %d rates item %d (added=%v) -> epoch %d\n", user, tail, added, epoch)

	// 3. The next query recomputes against the live graph: the freshly
	//    rated item disappears from the user's recommendations.
	recs2, err := longtail.RecommendItems(at, user, 5)
	if err != nil {
		return err
	}
	fmt.Printf("top-5 after the write:\n")
	for rank, r := range recs2 {
		fmt.Printf("  %d. item %-5d\n", rank+1, r.Item)
	}
	for _, r := range recs2 {
		if r.Item == tail {
			return fmt.Errorf("stale serving: freshly rated item %d still recommended", tail)
		}
	}

	// 4. A burst of writes crosses the compaction threshold: the delta
	//    overlay folds back into the CSR (epoch untouched), and stale cache
	//    entries can be swept eagerly.
	rng2 := rand.New(rand.NewSource(77))
	for w := 0; w < 100; w++ {
		if _, _, err := sys.ApplyRating(rng2.Intn(reloaded.NumUsers()), rng2.Intn(reloaded.NumItems()), 1+float64(rng2.Intn(5))); err != nil {
			return err
		}
	}
	dropped := sys.EvictStaleCache()
	st = sys.ServingStats()
	fmt.Printf("after 100-write burst: epoch %d, %d pending overlay writes, swept %d stale cache entries\n",
		st.Epoch, st.PendingWrites, dropped)
	fmt.Printf("cache totals: %d hits / %d misses / %d evictions (capacity %d)\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.Capacity)

	// 5. The open universe: a never-before-seen user arrives live.
	//    ServingConfig turns on AutoGrow, so a rating from a user (and for
	//    an item) outside the snapshot universe is admitted — the graph
	//    grows instead of rejecting the cold-start write.
	newUser := reloaded.NumUsers() // first id past the snapshot
	newItem := reloaded.NumItems()
	taste, _ := longtail.RecommendItems(sys.AT(), user, 3) // borrow an existing taste cluster
	if _, _, err := sys.ApplyRating(newUser, newItem, 5); err != nil {
		return err
	}
	for _, r := range taste { // the newcomer rates a few established items
		if _, _, err := sys.ApplyRating(newUser, r.Item, 4); err != nil {
			return err
		}
	}
	gu, gi := sys.Universe()
	fmt.Printf("\nopen universe: user %d and item %d admitted live -> universe %dx%d (snapshot %dx%d), epoch %d\n",
		newUser, newItem, gu, gi, reloaded.NumUsers(), reloaded.NumItems(), sys.Epoch())

	// The newcomer is servable by the walk engine the moment their first
	// ratings land — no retrain, no reload.
	newRecs, err := longtail.RecommendItems(at, newUser, 5)
	if err != nil {
		return err
	}
	fmt.Printf("top-5 for the brand-new user %d:\n", newUser)
	for rank, r := range newRecs {
		fmt.Printf("  %d. item %-5d\n", rank+1, r.Item)
	}
	if len(newRecs) == 0 {
		return fmt.Errorf("no recommendations for grown user %d", newUser)
	}
	return nil
}
