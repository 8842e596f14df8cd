package persist

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"longtailrec/internal/graph"
)

func checkpointFixture(t testing.TB) *FleetCheckpoint {
	t.Helper()
	g, err := graph.FromRatings(3, 4, []graph.Rating{
		{User: 0, Item: 0, Weight: 3},
		{User: 1, Item: 1, Weight: 5},
		{User: 2, Item: 2, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.UpsertRatingAutoGrow(3, 4, 2.5); err != nil {
		t.Fatal(err)
	}
	return &FleetCheckpoint{
		Seq: 17,
		Shards: []ShardCheckpoint{
			{BaseUsers: 3, BaseItems: 4, Snapshot: g.Snapshot()},
			{BaseUsers: 3, BaseItems: 4, Snapshot: g.Snapshot()},
		},
	}
}

func TestFleetCheckpointRoundTrip(t *testing.T) {
	cp := checkpointFixture(t)
	var buf bytes.Buffer
	if err := SaveFleetCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFleetCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != cp.Seq {
		t.Errorf("Seq = %d, want %d", got.Seq, cp.Seq)
	}
	if len(got.Shards) != len(cp.Shards) {
		t.Fatalf("%d shards, want %d", len(got.Shards), len(cp.Shards))
	}
	for k, s := range got.Shards {
		want := cp.Shards[k]
		if s.BaseUsers != want.BaseUsers || s.BaseItems != want.BaseItems {
			t.Errorf("shard %d base = (%d,%d), want (%d,%d)",
				k, s.BaseUsers, s.BaseItems, want.BaseUsers, want.BaseItems)
		}
		// Restoring through the validating rebuild must succeed and keep
		// the base split.
		g, err := graph.FromSnapshotWithBase(s.Snapshot, s.BaseUsers, s.BaseItems)
		if err != nil {
			t.Fatalf("shard %d restore: %v", k, err)
		}
		if g.BaseNumUsers() != want.BaseUsers || g.BaseNumItems() != want.BaseItems {
			t.Errorf("shard %d restored base = (%d,%d), want (%d,%d)",
				k, g.BaseNumUsers(), g.BaseNumItems(), want.BaseUsers, want.BaseItems)
		}
		if g.Epoch() != want.Snapshot.Epoch {
			t.Errorf("shard %d restored epoch = %d, want %d", k, g.Epoch(), want.Snapshot.Epoch)
		}
	}
}

func TestFleetCheckpointRejectsBadBase(t *testing.T) {
	cp := checkpointFixture(t)
	cp.Shards[1].BaseUsers = cp.Shards[1].Snapshot.NumUsers + 1
	var buf bytes.Buffer
	if err := SaveFleetCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFleetCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "base universe") {
		t.Fatalf("bad base accepted: err = %v", err)
	}
}

func TestFleetCheckpointRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveFleetCheckpoint(&buf, &FleetCheckpoint{}); err == nil {
		t.Error("empty checkpoint saved")
	}
	if err := SaveFleetCheckpoint(&buf, nil); err == nil {
		t.Error("nil checkpoint saved")
	}
}

func TestSaveFileAtomicReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ltr")
	if err := SaveFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("old-contents"))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// A failing save must leave the old file byte-identical and no temp
	// droppings behind — the crash-mid-save contract.
	boom := errors.New("boom")
	if err := SaveFile(path, func(w io.Writer) error {
		w.Write([]byte("half-written garbage"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failing save returned %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old-contents" {
		t.Errorf("failed save left %q, want old contents intact", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("temp files left behind: %v", names)
	}

	// A succeeding save replaces wholesale.
	if err := SaveFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new-contents"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new-contents" {
		t.Errorf("file = %q, want new contents", got)
	}
}

func TestSaveFileCheckpointOnDisk(t *testing.T) {
	cp := checkpointFixture(t)
	path := filepath.Join(t.TempDir(), "checkpoint.ltr")
	if err := SaveFile(path, func(w io.Writer) error {
		return SaveFleetCheckpoint(w, cp)
	}); err != nil {
		t.Fatal(err)
	}
	var got *FleetCheckpoint
	if err := LoadFile(path, func(r io.Reader) error {
		var err error
		got, err = LoadFleetCheckpoint(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got.Seq != cp.Seq || len(got.Shards) != len(cp.Shards) {
		t.Errorf("loaded (seq=%d, shards=%d), want (seq=%d, shards=%d)",
			got.Seq, len(got.Shards), cp.Seq, len(cp.Shards))
	}
}
