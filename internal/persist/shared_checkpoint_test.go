package persist

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"longtailrec/internal/graph"
)

func sharedCheckpointFixture(t testing.TB) *SharedFleetCheckpoint {
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
	return &SharedFleetCheckpoint{
		Seq:       17,
		BaseUsers: 3,
		BaseItems: 4,
		Base:      g.Snapshot(),
		Shards: []ShardOverlay{
			{Epoch: 3},
			{Epoch: 5, Deltas: []graph.Rating{{User: 1, Item: 2, Weight: 4}}},
			{Epoch: 0},
		},
	}
}

func TestSharedFleetCheckpointRoundTrip(t *testing.T) {
	cp := sharedCheckpointFixture(t)
	var buf bytes.Buffer
	if err := SaveSharedFleetCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSharedFleetCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip diverged:\n got:  %+v\n want: %+v", got, cp)
	}
	// The base must restore through the validating rebuild with its
	// base/live universe split intact.
	g, err := graph.FromSnapshotWithBase(got.Base, got.BaseUsers, got.BaseItems)
	if err != nil {
		t.Fatal(err)
	}
	if g.BaseNumUsers() != cp.BaseUsers || g.BaseNumItems() != cp.BaseItems {
		t.Fatalf("restored base split = (%d,%d), want (%d,%d)",
			g.BaseNumUsers(), g.BaseNumItems(), cp.BaseUsers, cp.BaseItems)
	}
}

// TestSharedFleetCheckpointSize pins the size fix: a shared-base image
// stores the base once, so growing the fleet from 2 to 16 shards must
// add only per-shard overlay headers — not 8× the payload, as the legacy
// per-replica format does.
func TestSharedFleetCheckpointSize(t *testing.T) {
	encodedLen := func(shards int) int {
		cp := sharedCheckpointFixture(t)
		cp.Shards = make([]ShardOverlay, shards)
		var buf bytes.Buffer
		if err := SaveSharedFleetCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	n2, n16 := encodedLen(2), encodedLen(16)
	// 14 extra empty overlays are 16 bytes each (epoch + count).
	if grew := n16 - n2; grew != 14*16 {
		t.Fatalf("2->16 shards grew the checkpoint by %d bytes, want %d (base serialized more than once?)", grew, 14*16)
	}
}

func TestSharedFleetCheckpointRejectsBadShape(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveSharedFleetCheckpoint(&buf, &SharedFleetCheckpoint{}); err == nil {
		t.Error("shardless checkpoint saved")
	}
	if err := SaveSharedFleetCheckpoint(&buf, nil); err == nil {
		t.Error("nil checkpoint saved")
	}
	cp := sharedCheckpointFixture(t)
	cp.BaseUsers = cp.Base.NumUsers + 1
	buf.Reset()
	if err := SaveSharedFleetCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharedFleetCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "base universe") {
		t.Fatalf("bad base accepted: err = %v", err)
	}
}

// TestLoadAnyFleetCheckpointNative: the any-loader reads the new kind
// as-is.
func TestLoadAnyFleetCheckpointNative(t *testing.T) {
	cp := sharedCheckpointFixture(t)
	var buf bytes.Buffer
	if err := SaveSharedFleetCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAnyFleetCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("native any-load diverged:\n got:  %+v\n want: %+v", got, cp)
	}
}

// TestLoadAnyFleetCheckpointLegacy pins recovery compatibility: a legacy
// Kind-6 checkpoint (N full snapshots) loads through the any-loader as a
// shared-base image — shard 0's snapshot becomes the base, converged
// shards contribute empty deltas, per-shard epochs carry over.
func TestLoadAnyFleetCheckpointLegacy(t *testing.T) {
	legacy := checkpointFixture(t)
	legacy.Shards[1].Snapshot.Epoch = 9 // converged content, distinct epoch
	var buf bytes.Buffer
	if err := SaveFleetCheckpoint(&buf, legacy); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAnyFleetCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != legacy.Seq {
		t.Errorf("Seq = %d, want %d", got.Seq, legacy.Seq)
	}
	if got.BaseUsers != legacy.Shards[0].BaseUsers || got.BaseItems != legacy.Shards[0].BaseItems {
		t.Errorf("base split = (%d,%d), want shard 0's (%d,%d)",
			got.BaseUsers, got.BaseItems, legacy.Shards[0].BaseUsers, legacy.Shards[0].BaseItems)
	}
	if !reflect.DeepEqual(got.Base.Ratings, legacy.Shards[0].Snapshot.Ratings) {
		t.Error("converted base is not shard 0's snapshot")
	}
	if len(got.Shards) != 2 {
		t.Fatalf("%d shards, want 2", len(got.Shards))
	}
	if got.Shards[0].Epoch != legacy.Shards[0].Snapshot.Epoch || got.Shards[1].Epoch != 9 {
		t.Errorf("epochs = (%d,%d), want (%d,9)",
			got.Shards[0].Epoch, got.Shards[1].Epoch, legacy.Shards[0].Snapshot.Epoch)
	}
	for k, s := range got.Shards {
		if len(s.Deltas) != 0 {
			t.Errorf("converged shard %d converted with %d deltas, want none", k, len(s.Deltas))
		}
	}
}

// TestLoadAnyFleetCheckpointLegacyDivergence: a shard that drifted AHEAD
// of shard 0 (extra edge, re-rated edge) converts into overlay deltas; a
// shard MISSING one of shard 0's edges is unrepresentable (the write
// model has no deletes) and must fail loudly.
func TestLoadAnyFleetCheckpointLegacyDivergence(t *testing.T) {
	legacy := checkpointFixture(t)
	s1 := &legacy.Shards[1].Snapshot
	s1.Ratings = append(s1.Ratings, graph.Rating{User: 2, Item: 3, Weight: 4}) // addition
	for j, r := range s1.Ratings {
		if r.User == 1 && r.Item == 1 {
			s1.Ratings[j].Weight = 2 // re-rate
		}
	}
	var buf bytes.Buffer
	if err := SaveFleetCheckpoint(&buf, legacy); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAnyFleetCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Rating{{User: 1, Item: 1, Weight: 2}, {User: 2, Item: 3, Weight: 4}}
	deltas := got.Shards[1].Deltas
	if len(deltas) != len(want) {
		t.Fatalf("shard 1 deltas = %+v, want %+v", deltas, want)
	}
	for _, w := range want {
		found := false
		for _, d := range deltas {
			if d == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("delta %+v missing from %+v", w, deltas)
		}
	}

	// Deletion: drop one of shard 0's edges from shard 1.
	legacy = checkpointFixture(t)
	s1 = &legacy.Shards[1].Snapshot
	kept := s1.Ratings[:0]
	for _, r := range s1.Ratings {
		if !(r.User == 0 && r.Item == 0) {
			kept = append(kept, r)
		}
	}
	s1.Ratings = kept
	buf.Reset()
	if err := SaveFleetCheckpoint(&buf, legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAnyFleetCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("deletion silently converted: err = %v", err)
	}
}
