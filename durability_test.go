// Durability integration tests: kill-and-restart recovery (no
// acknowledged write may be lost; the recovered system must be
// byte-identical to one that never died), the group-commit write path,
// graceful-shutdown checkpointing, and restart from checkpoints written by
// earlier builds.
//
// The TestDurable* names put these under the race-gated suite in CI
// (see Makefile's race target).

package longtail

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"longtailrec/internal/lda"
	"longtailrec/internal/persist"
	"longtailrec/internal/synth"
	"longtailrec/internal/wal"
)

// servingTestWorld is the shared corpus of the serving tests: big enough
// for meaningful walks, small enough to rebuild many times.
func servingTestWorld(t testing.TB) *World {
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

// servingTestConfig is the System configuration over servingTestWorld.
func servingTestConfig() Config {
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 2, Iterations: 5}
	cfg.Seed = 7
	return cfg
}

// durableSystem builds a WAL-backed, auto-growing System over w.
func durableSystem(t testing.TB, w *World, walDir string) *System {
	t.Helper()
	cfg := servingTestConfig()
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

// TestDurableRestartRecovery is the central durability claim: a server
// killed without warning (no graceful shutdown, no final checkpoint)
// and restarted over the same WAL directory recovers EVERY acknowledged
// write — its epoch and its recommendation responses are byte-identical
// to a system that ran the same operations uninterrupted.
func TestDurableRestartRecovery(t *testing.T) {
	w := servingTestWorld(t)
	// control never dies; victim is killed after phase 2.
	control := durableSystem(t, w, t.TempDir())
	defer control.Close()
	victimDir := t.TempDir()
	victim := durableSystem(t, w, victimDir)

	// Phase 1: writes, then a checkpoint on both systems.
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

	recovered := durableSystem(t, w, victimDir)
	defer recovered.Close()

	if got, want := recovered.Epoch(), control.Epoch(); got != want {
		t.Fatalf("recovered epoch = %d, want %d (acknowledged writes lost or double-applied)", got, want)
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

// TestDurableItemPopularityMemoTracksWrites is the System-level half of
// internal/graph's TestItemPopularityMemoTracksWrites: after group-committed
// writes, a snapshot refresh (a fold) and a kill-and-recover into a fresh
// NewSystem, the memoised popularity equals a recount from the live rows,
// and the recovered system's equals the one that never died.
func TestDurableItemPopularityMemoTracksWrites(t *testing.T) {
	w := servingTestWorld(t)
	check := func(step string, sys *System) {
		t.Helper()
		g := sys.Graph()
		want := make([]int, g.NumItems())
		for i := range want {
			nodes, _ := g.Neighbors(g.ItemNode(i))
			want[i] = len(nodes)
		}
		if got := sys.LiveItemPopularityFor(0); !slices.Equal(got, want) {
			t.Fatalf("%s: LiveItemPopularityFor = %v, recount %v", step, got, want)
		}
	}
	control := durableSystem(t, w, t.TempDir())
	defer control.Close()
	victimDir := t.TempDir()
	victim := durableSystem(t, w, victimDir)
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

	recovered := durableSystem(t, w, victimDir)
	defer recovered.Close()
	check("recovery", recovered)
	if got, want := recovered.LiveItemPopularityFor(0), control.LiveItemPopularityFor(0); !slices.Equal(got, want) {
		t.Fatalf("recovered popularity %v, uninterrupted %v", got, want)
	}
	writeStream(t, recovered, 3)
	check("writes after recovery", recovered)
}

// TestDurableShutdown: a graceful Close flushes the pending batch and
// writes a final checkpoint that alone (the log having been truncated
// behind it) restores the full state; a write after Close is refused,
// not lost silently.
func TestDurableShutdown(t *testing.T) {
	w := servingTestWorld(t)
	dir := t.TempDir()
	sys := durableSystem(t, w, dir)
	g := sys.Graph()

	user, item := 0, 3
	if _, _, err := sys.ApplyRating(user, item, 4.25); err != nil {
		t.Fatal(err)
	}
	if err := sys.SnapshotRefresh(); err != nil {
		t.Fatal(err)
	}
	// Write after the refresh, then shut down gracefully: Close must flush
	// and checkpoint so the restart needs no WAL tail at all.
	if _, _, err := sys.ApplyRating(user, item+1, 2.75); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	wantEpoch := sys.Epoch()
	st := sys.ServingStats().Durability
	if st.PendingBatch != 0 {
		t.Fatalf("pending batch = %d after Close, want 0", st.PendingBatch)
	}
	if st.LastCheckpointEpoch != wantEpoch {
		t.Fatalf("last checkpoint epoch = %d after Close, want %d", st.LastCheckpointEpoch, wantEpoch)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	restarted := durableSystem(t, w, dir)
	defer restarted.Close()
	if got := restarted.Epoch(); got != wantEpoch {
		t.Fatalf("restarted epoch = %d, want %d", got, wantEpoch)
	}
	rg := restarted.Graph()
	for _, e := range []struct {
		item int
		want float64
	}{{item, 4.25}, {item + 1, 2.75}} {
		if got := rg.Weight(rg.UserNode(user), rg.ItemNode(e.item)); got != e.want {
			t.Fatalf("weight (%d,%d) = %v across graceful restart, want %v", user, e.item, got, e.want)
		}
	}
	if _, _, err := sys.ApplyRating(user, item, 2); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("write after Close: err = %v, want wal.ErrClosed", err)
	}
	if got := g.Weight(g.UserNode(user), g.ItemNode(item)); got != 4.25 {
		t.Fatalf("refused write changed the graph: weight %v", got)
	}
}

// copyParentCheckpoint puts testdata/parent_checkpoint.ltr into a fresh
// WAL directory. The file was written by the previous build's System,
// serving one replica, over servingTestWorld: writeStream phase 1, SnapshotRefresh,
// writeStream phase 2, Close. testdata/parent_checkpoint_rankings.jsonl
// holds, one JSON Response per line, what that build served after
// restarting from it: HT then AT, users 0, 3, ..., 60 with K 5 and
// fallback allowed.
func copyParentCheckpoint(t *testing.T) (dir string, raw []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "parent_checkpoint.ltr"))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, raw
}

// TestDurableRestartFromParentCheckpoint pins upgrade compatibility both
// ways: the previous build's Kind 6 checkpoint restores to byte-identical
// rankings, and this build's writer produces that file byte for byte from
// the same history.
func TestDurableRestartFromParentCheckpoint(t *testing.T) {
	w := servingTestWorld(t)
	dir, parentRaw := copyParentCheckpoint(t)
	want, err := os.ReadFile(filepath.Join("testdata", "parent_checkpoint_rankings.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sys := durableSystem(t, w, dir)
	defer sys.Close()
	var got bytes.Buffer
	ctx := context.Background()
	for _, algo := range []string{"HT", "AT"} {
		for u := 0; u < w.Data.NumUsers()+3; u += 3 {
			resp, err := sys.Recommend(ctx, algo, Request{User: u, K: 5, AllowFallback: true})
			if err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(resp)
			got.Write(b)
			got.WriteByte('\n')
		}
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d responses, the previous build served %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("response %d diverged from the previous build:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}

	fresh := t.TempDir()
	writer := durableSystem(t, w, fresh)
	writeStream(t, writer, 1)
	if err := writer.SnapshotRefresh(); err != nil {
		t.Fatal(err)
	}
	writeStream(t, writer, 2)
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(fresh, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, parentRaw) {
		t.Fatalf("checkpoint of the same history differs from the previous build's (%d vs %d bytes)", len(raw), len(parentRaw))
	}
}

// TestDurableRestartRefusesMultiReplicaCheckpoint: a checkpoint of a
// build that served several replicas — the shared-base kind, or Kind 6
// with more than one graph image — cannot restore into one graph without
// losing the writes each replica held alone, so NewSystem refuses it and
// says how to recover.
func TestDurableRestartRefusesMultiReplicaCheckpoint(t *testing.T) {
	w := servingTestWorld(t)
	_, raw := copyParentCheckpoint(t)
	// Container: magic, version, kind (bytes 6-8), payload length (8-16),
	// payload, CRC-32 of the payload. The payload starts with the WAL
	// sequence and the image count.
	payload := raw[16 : len(raw)-4]
	frame := func(kind uint16, payload []byte) []byte {
		out := append([]byte(nil), raw[:16]...)
		binary.LittleEndian.PutUint16(out[6:8], kind)
		binary.LittleEndian.PutUint64(out[8:16], uint64(len(payload)))
		out = append(out, payload...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	twoImages := append([]byte(nil), payload[:8]...)
	twoImages = binary.LittleEndian.AppendUint64(twoImages, 2)
	twoImages = append(append(twoImages, payload[16:]...), payload[16:]...)

	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"shared-base checkpoint", frame(uint16(persist.KindSharedCheckpoint), payload)},
		{"checkpoint with two graph images", frame(uint16(persist.KindCheckpoint), twoImages)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, checkpointFileName), tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := servingTestConfig()
			cfg.WALDir = dir
			_, err := NewSystem(w.Data, cfg)
			if err == nil {
				t.Fatal("restored")
			}
			if !strings.Contains(err.Error(), "rebuild from the dataset") {
				t.Fatalf("error %q does not say to rebuild from the dataset", err)
			}
		})
	}
}

// TestDurableApplyRating: accepted writes are logged and applied; invalid
// writes are rejected BEFORE logging, so the log holds exactly the
// accepted records.
func TestDurableApplyRating(t *testing.T) {
	w := servingTestWorld(t)
	sys := durableSystem(t, w, t.TempDir())
	defer sys.Close()
	n := w.Data.NumUsers()

	added, epoch, err := sys.ApplyRating(n, 3, 4.5) // admits user n
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Error("new edge not reported as added")
	}
	if epoch != 2 {
		t.Errorf("epoch = %d after one admission and one edge, want 2", epoch)
	}
	if _, _, err := sys.ApplyRating(n, 5, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.ApplyRating(-1, 0, 1); err == nil {
		t.Error("negative user accepted")
	}
	if _, _, err := sys.ApplyRating(0, 0, -1); err == nil {
		t.Error("negative-weight write accepted")
	}
	st := sys.ServingStats().Durability
	if !st.Enabled {
		t.Fatal("durability not reported enabled")
	}
	if st.DurableSeq != 2 {
		t.Errorf("log holds %d records, want 2 (rejected writes must not be logged)", st.DurableSeq)
	}
	if got := sys.Epoch(); got != 3 {
		t.Errorf("epoch = %d, want 3", got)
	}
}

// TestDurableConcurrentWriters: concurrent writers group-commit, every
// acknowledged write is logged, and nothing stays queued once they
// return.
func TestDurableConcurrentWriters(t *testing.T) {
	w := servingTestWorld(t)
	cfg := servingTestConfig()
	cfg.WALDir = t.TempDir()
	cfg.WALMaxBatch = 16
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const writers = 24
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for k := 0; k < writers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, _, errs[k] = sys.ApplyRating(k%4, (k+1)%4, float64(k+1))
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", k, err)
		}
	}
	st := sys.ServingStats().Durability
	if st.DurableSeq != writers {
		t.Errorf("durable seq = %d, want %d (every acked write logged)", st.DurableSeq, writers)
	}
	if st.PendingBatch != 0 {
		t.Errorf("pending batch = %d after quiesce, want 0", st.PendingBatch)
	}
}

// TestDurableSnapshotRefreshAfterFlush: once the ingester is stopped,
// writes fail closed but a refresh still checkpoints — the final
// checkpoint of a graceful shutdown — and truncates the log behind it.
func TestDurableSnapshotRefreshAfterFlush(t *testing.T) {
	w := servingTestWorld(t)
	dir := t.TempDir()
	sys := durableSystem(t, w, dir)
	defer sys.Close()
	if _, _, err := sys.ApplyRating(0, 3, 9); err != nil {
		t.Fatal(err)
	}
	sys.ing.Close()
	if _, _, err := sys.ApplyRating(1, 0, 8); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("write after flush: err = %v, want ErrClosed", err)
	}
	if err := sys.SnapshotRefresh(); err != nil {
		t.Fatal(err)
	}
	var cp *persist.FleetCheckpoint
	if err := persist.LoadFile(filepath.Join(dir, checkpointFileName), func(r io.Reader) error {
		var err error
		cp, err = persist.LoadFleetCheckpoint(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if cp.Seq != 1 || cp.Snapshot.Epoch != sys.Epoch() {
		t.Errorf("checkpoint (seq %d, epoch %d), want (1, %d)", cp.Seq, cp.Snapshot.Epoch, sys.Epoch())
	}
	if len(readLog(t, dir)) != 0 {
		t.Error("log not truncated behind the checkpoint")
	}
}

// TestDurableSnapshotRefreshRequiresWAL: without a WAL directory there is
// nothing to checkpoint, durability reports disabled and Close is a no-op.
func TestDurableSnapshotRefreshRequiresWAL(t *testing.T) {
	w := servingTestWorld(t)
	sys, err := NewSystem(w.Data, servingTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SnapshotRefresh(); err == nil || !strings.Contains(err.Error(), "no WAL directory") {
		t.Fatalf("refresh without a WAL: err = %v", err)
	}
	if st := sys.ServingStats().Durability; st.Enabled {
		t.Error("durability reported enabled without a WAL")
	}
	if err := sys.Close(); err != nil {
		t.Error(err)
	}
}

// readLog returns every record of the WAL in dir.
func readLog(t *testing.T, dir string) []wal.Record {
	t.Helper()
	l, err := wal.Open(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var recs []wal.Record
	if err := l.Replay(0, func(_ uint64, rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestDurableRecoveryViaApplyRecord: replaying a log through applyRecord
// into a fresh System reproduces the logged writes exactly — epoch,
// weights and the grown universe.
func TestDurableRecoveryViaApplyRecord(t *testing.T) {
	w := servingTestWorld(t)
	dir := t.TempDir()
	sys := durableSystem(t, w, dir)
	n, m := w.Data.NumUsers(), w.Data.NumItems()
	if _, _, err := sys.ApplyRating(0, 3, 9); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.ApplyRating(n+1, m, 2); err != nil { // admits two users and an item
		t.Fatal(err)
	}
	sys.ing.Close() // quiesce the log before reading it
	recs := readLog(t, dir)

	fresh, err := NewSystem(w.Data, servingTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := fresh.applyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fresh.Epoch(), sys.Epoch(); got != want {
		t.Errorf("replayed epoch = %d, want %d", got, want)
	}
	g := fresh.Graph()
	if got := g.Weight(g.UserNode(0), g.ItemNode(3)); got != 9 {
		t.Errorf("replayed weight(0,3) = %v, want 9", got)
	}
	if nu, ni := fresh.Universe(); nu != n+2 || ni != m+1 {
		t.Errorf("replayed universe = (%d,%d), want (%d,%d)", nu, ni, n+2, m+1)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}
