// Durability integration tests: kill-and-restart recovery (no
// acknowledged write may be lost; the recovered system must be
// byte-identical to one that never died), cross-shard convergence via
// the snapshot-refresh cycle, and graceful-shutdown checkpointing.
//
// The TestFleet* names put these under the race-gated suite in CI
// (see Makefile's race target).

package longtail

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"longtailrec/internal/graph"
	"longtailrec/internal/lda"
	"longtailrec/internal/persist"
)

// durableSystem builds a WAL-backed sharded System over the shared shard
// test corpus.
func durableSystem(t testing.TB, w *World, shards int, walDir string) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 2, Iterations: 5}
	cfg.Seed = 7
	cfg.ShardCount = shards
	cfg.AutoGrow = true
	cfg.WALDir = walDir
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// writeStream applies a deterministic mixed write stream — inserts,
// re-rates, auto-grow admissions — failing the test on any error.
func writeStream(t testing.TB, sys *System, phase int) {
	t.Helper()
	n := sys.Data().NumUsers()
	for i := 0; i < 12; i++ {
		user := (phase*31 + i*7) % n
		item := (phase*17 + i*5) % sys.Data().NumItems()
		if _, _, err := sys.ApplyRating(user, item, float64(1+(phase+i)%5)); err != nil {
			t.Fatalf("phase %d write %d: %v", phase, i, err)
		}
	}
	// One auto-grow admission per phase: a brand-new user rates a
	// brand-new item.
	if _, _, err := sys.ApplyRating(n+phase, sys.Data().NumItems()+phase, 3); err != nil {
		t.Fatalf("phase %d admission: %v", phase, err)
	}
}

// TestFleetRestartRecovery is the central durability claim: a server
// killed without warning (no graceful shutdown, no final checkpoint)
// and restarted over the same WAL directory recovers EVERY acknowledged
// write — its fleet epoch and its recommendation responses are
// byte-identical to a system that ran the same operations uninterrupted.
func TestFleetRestartRecovery(t *testing.T) {
	w := shardTestWorld(t)
	// control never dies; victim is killed after phase 2.
	control := durableSystem(t, w, 2, t.TempDir())
	defer control.Close()
	victimDir := t.TempDir()
	victim := durableSystem(t, w, 2, victimDir)

	// Phase 1: writes, then a checkpoint on BOTH systems (the refresh
	// also converges shards, so it must happen on both to keep them
	// comparable).
	writeStream(t, control, 1)
	writeStream(t, victim, 1)
	if err := control.SnapshotRefresh(); err != nil {
		t.Fatal(err)
	}
	if err := victim.SnapshotRefresh(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: more writes land AFTER the checkpoint, so recovery must
	// stitch checkpoint + WAL tail together.
	writeStream(t, control, 2)
	writeStream(t, victim, 2)

	// Kill: abandon the victim with no flush and no final checkpoint.
	// Every acknowledged write above is already fsync'd (acks follow
	// durability), so a restart over the same directory must see all of
	// them — this is the crash the WAL exists for.
	victim = nil

	recovered := durableSystem(t, w, 2, victimDir)
	defer recovered.Close()

	if got, want := recovered.Epoch(), control.Epoch(); got != want {
		t.Fatalf("recovered fleet epoch = %d, want %d (acknowledged writes lost or double-applied)", got, want)
	}
	gu, gi := recovered.Universe()
	wu, wi := control.Universe()
	if gu != wu || gi != wi {
		t.Fatalf("recovered universe = (%d,%d), want (%d,%d)", gu, gi, wu, wi)
	}

	// Byte-identical serving: same users, same algorithms, same JSON.
	ctx := context.Background()
	for _, algo := range []string{"HT", "AT", "MostPopular"} {
		for u := 0; u < w.Data.NumUsers()+3; u += 3 {
			req := Request{User: u, K: 5, AllowFallback: true}
			rc, errC := control.Recommend(ctx, algo, req)
			rr, errR := recovered.Recommend(ctx, algo, req)
			if (errC == nil) != (errR == nil) {
				t.Fatalf("%s user %d: error divergence: %v vs %v", algo, u, errC, errR)
			}
			if errC != nil {
				continue
			}
			bc, _ := json.Marshal(rc)
			br, _ := json.Marshal(rr)
			if string(bc) != string(br) {
				t.Fatalf("%s user %d: recovered response diverged:\n control  %s\n recovered %s", algo, u, bc, br)
			}
		}
	}
}

// TestFleetItemPopularityMemoTracksWrites is the System-level half of
// internal/graph's TestItemPopularityMemoTracksWrites: after group-committed
// writes, a snapshot refresh (the fleet's group fold) and a kill-and-recover
// into a fresh NewSystem, every shard's memoised popularity equals a
// recount from that shard's live rows, and the recovered system's equals
// the one that never died.
func TestFleetItemPopularityMemoTracksWrites(t *testing.T) {
	w := shardTestWorld(t)
	check := func(step string, sys *System) {
		t.Helper()
		for sh := 0; sh < sys.ShardCount(); sh++ {
			g := sys.ShardGraph(sh)
			want := make([]int, g.NumItems())
			for i := range want {
				nodes, _ := g.Neighbors(g.ItemNode(i))
				want[i] = len(nodes)
			}
			if got := g.ItemPopularity(); !slices.Equal(got, want) {
				t.Fatalf("%s, shard %d: ItemPopularity() = %v, recount %v", step, sh, got, want)
			}
		}
	}
	control := durableSystem(t, w, 2, t.TempDir())
	defer control.Close()
	victimDir := t.TempDir()
	victim := durableSystem(t, w, 2, victimDir)
	for _, sys := range []*System{control, victim} {
		check("construction", sys)
		writeStream(t, sys, 1)
		check("group-committed writes", sys)
		if err := sys.SnapshotRefresh(); err != nil {
			t.Fatal(err)
		}
		check("snapshot refresh", sys)
		writeStream(t, sys, 2)
		check("writes after the checkpoint", sys)
	}
	victim = nil // killed: no flush, no final checkpoint

	recovered := durableSystem(t, w, 2, victimDir)
	defer recovered.Close()
	check("recovery", recovered)
	for u := 0; u < 8; u++ { // enough users to land on both shards
		if got, want := recovered.LiveItemPopularityFor(u), control.LiveItemPopularityFor(u); !slices.Equal(got, want) {
			t.Fatalf("user %d: recovered popularity %v, uninterrupted %v", u, got, want)
		}
	}
	writeStream(t, recovered, 3)
	check("writes after recovery", recovered)
}

// TestFleetDurableConvergenceAndShutdown covers the snapshot-refresh
// consistency contract at the System level: a write is visible to its
// own shard immediately and to the other shards after a refresh; a
// graceful Close writes a final checkpoint that alone (the log having
// been truncated behind it) restores the full state.
func TestFleetDurableConvergenceAndShutdown(t *testing.T) {
	w := shardTestWorld(t)
	dir := t.TempDir()
	sys := durableSystem(t, w, 2, dir)

	user, item := 0, 3
	home := sys.ShardFor(user)
	other := 1 - home
	gHome, gOther := sys.ShardGraph(home), sys.ShardGraph(other)
	// Pick a score that differs from whatever the base corpus holds so
	// visibility is observable.
	before := gHome.Weight(gHome.UserNode(user), gHome.ItemNode(item))
	score := 2.0
	if before == score {
		score = 4
	}
	if _, _, err := sys.ApplyRating(user, item, score); err != nil {
		t.Fatal(err)
	}
	if got := gHome.Weight(gHome.UserNode(user), gHome.ItemNode(item)); got != score {
		t.Fatalf("home shard weight = %v, want %v", got, score)
	}
	if got := gOther.Weight(gOther.UserNode(user), gOther.ItemNode(item)); got != before {
		t.Fatalf("foreign shard weight = %v before any refresh, want the base %v", got, before)
	}
	if err := sys.SnapshotRefresh(); err != nil {
		t.Fatal(err)
	}
	if got := gOther.Weight(gOther.UserNode(user), gOther.ItemNode(item)); got != score {
		t.Fatalf("foreign shard weight after refresh = %v, want %v (convergence failed)", got, score)
	}

	// Write after the refresh, then shut down gracefully: Close must
	// flush and checkpoint so the restart needs no WAL tail at all.
	score2 := 3.0
	if gHome.Weight(gHome.UserNode(user), gHome.ItemNode(item+1)) == score2 {
		score2 = 1
	}
	if _, _, err := sys.ApplyRating(user, item+1, score2); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// The final checkpoint inside Close converges the foreign replica
	// (one more epoch bump), so the reference epoch is read after it.
	wantEpoch := sys.Epoch()
	st := sys.ServingStats()
	if st.Durability.PendingBatch != 0 {
		t.Fatalf("pending batch = %d after Close, want 0", st.Durability.PendingBatch)
	}

	restarted := durableSystem(t, w, 2, dir)
	defer restarted.Close()
	if got := restarted.Epoch(); got != wantEpoch {
		t.Fatalf("restarted epoch = %d, want %d", got, wantEpoch)
	}
	g := restarted.ShardGraph(home)
	if got := g.Weight(g.UserNode(user), g.ItemNode(item+1)); got != score2 {
		t.Fatalf("post-refresh write lost across graceful restart: weight = %v, want %v", got, score2)
	}
	// Writes rejected after Close are rejected durably closed, not lost
	// silently.
	if _, _, err := sys.ApplyRating(user, item, 2); err == nil {
		t.Fatal("write accepted after Close")
	}
}

// TestFleetRestartFromLegacyCheckpoint pins upgrade compatibility: a
// server whose WAL directory holds a pre-shared-base checkpoint (legacy
// Kind 6: one full snapshot per shard) must restart from it — converted
// into one shared base plus per-shard epochs — and write its NEXT
// checkpoint in the shared format.
func TestFleetRestartFromLegacyCheckpoint(t *testing.T) {
	w := shardTestWorld(t)
	dir := t.TempDir()

	// Fabricate the legacy image the old code would have left behind: two
	// converged (content-identical) shard snapshots with distinct epochs.
	g := w.Data.Graph()
	if _, err := g.UpsertRating(0, 3, 4.25); err != nil {
		t.Fatal(err)
	}
	if _, err := g.UpsertRating(1, 5, 2.5); err != nil {
		t.Fatal(err)
	}
	legacy := &persist.FleetCheckpoint{
		Seq: 2,
		Shards: []persist.ShardCheckpoint{
			{BaseUsers: g.BaseNumUsers(), BaseItems: g.BaseNumItems(), Snapshot: g.Snapshot()},
			{BaseUsers: g.BaseNumUsers(), BaseItems: g.BaseNumItems(), Snapshot: g.Snapshot()},
		},
	}
	legacy.Shards[1].Snapshot.Epoch = 3
	ckptPath := filepath.Join(dir, "checkpoint.ltr")
	if err := persist.SaveFile(ckptPath, func(wr io.Writer) error {
		return persist.SaveFleetCheckpoint(wr, legacy)
	}); err != nil {
		t.Fatal(err)
	}

	sys := durableSystem(t, w, 2, dir)
	defer sys.Close()
	if got, want := sys.Epoch(), legacy.Shards[0].Snapshot.Epoch+3; got != want {
		t.Fatalf("restored fleet epoch = %d, want %d (sum of legacy per-shard epochs)", got, want)
	}
	g0, g1 := sys.ShardGraph(0), sys.ShardGraph(1)
	if !g0.SharesBaseWith(g1) {
		t.Fatal("legacy restore built independent replicas, want shared-base views")
	}
	for i, sg := range []*graph.Bipartite{g0, g1} {
		if got := sg.Weight(sg.UserNode(0), sg.ItemNode(3)); got != 4.25 {
			t.Fatalf("shard %d restored weight = %v, want 4.25", i, got)
		}
	}

	// The next refresh must upgrade the on-disk format.
	if err := sys.SnapshotRefresh(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := persist.LoadSharedFleetCheckpoint(f); err != nil {
		t.Fatalf("post-upgrade checkpoint is not shared-format: %v", err)
	}
}

// TestFleetRestartShardCountMismatch pins the guard rail: restarting a
// checkpointed fleet with a different shard count must fail loudly, not
// silently misroute users.
func TestFleetRestartShardCountMismatch(t *testing.T) {
	w := shardTestWorld(t)
	dir := t.TempDir()
	sys := durableSystem(t, w, 2, dir)
	if _, _, err := sys.ApplyRating(0, 3, 5); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 2, Iterations: 5}
	cfg.Seed = 7
	cfg.ShardCount = 3
	cfg.AutoGrow = true
	cfg.WALDir = dir
	if _, err := NewSystem(w.Data, cfg); err == nil {
		t.Fatal("shard-count mismatch against the checkpoint accepted")
	}
}
