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
	return &FleetCheckpoint{Seq: 17, BaseUsers: 3, BaseItems: 4, Snapshot: g.Snapshot()}
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
	if got.BaseUsers != cp.BaseUsers || got.BaseItems != cp.BaseItems {
		t.Errorf("base = (%d,%d), want (%d,%d)", got.BaseUsers, got.BaseItems, cp.BaseUsers, cp.BaseItems)
	}
	// Restoring through the validating rebuild must succeed and keep the
	// base split.
	g, err := graph.FromSnapshotWithBase(got.Snapshot, got.BaseUsers, got.BaseItems)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if g.BaseNumUsers() != cp.BaseUsers || g.BaseNumItems() != cp.BaseItems {
		t.Errorf("restored base = (%d,%d), want (%d,%d)",
			g.BaseNumUsers(), g.BaseNumItems(), cp.BaseUsers, cp.BaseItems)
	}
	if g.Epoch() != cp.Snapshot.Epoch {
		t.Errorf("restored epoch = %d, want %d", g.Epoch(), cp.Snapshot.Epoch)
	}
}

func TestFleetCheckpointRejectsBadBase(t *testing.T) {
	cp := checkpointFixture(t)
	cp.BaseUsers = cp.Snapshot.NumUsers + 1
	var buf bytes.Buffer
	if err := SaveFleetCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFleetCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "base universe") {
		t.Fatalf("bad base accepted: err = %v", err)
	}
}

// TestFleetCheckpointRejectsEmpty: a nil checkpoint does not save, and a
// container holding no image, several images or a retired multi-replica
// kind does not load.
func TestFleetCheckpointRejectsEmpty(t *testing.T) {
	if err := SaveFleetCheckpoint(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil checkpoint saved")
	}
	var one bytes.Buffer
	if err := SaveFleetCheckpoint(&one, checkpointFixture(t)); err != nil {
		t.Fatal(err)
	}
	payload := containerPayload(one.Bytes())
	image := payload[16:] // after the sequence number and the image count
	for _, tc := range []struct {
		name   string
		kind   Kind
		images int
	}{
		{"no image", KindCheckpoint, 0},
		{"two images", KindCheckpoint, 2},
		{"shared-base kind", KindSharedCheckpoint, 1},
	} {
		var e enc
		e.u64(17)
		e.i(tc.images)
		for k := 0; k < tc.images; k++ {
			e.buf = append(e.buf, image...)
		}
		var buf bytes.Buffer
		if err := writeContainer(&buf, tc.kind, e.buf); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFleetCheckpoint(&buf)
		if err == nil {
			t.Fatalf("%s: loaded", tc.name)
		}
		if tc.images != 0 && !strings.Contains(err.Error(), "rebuild from the dataset") {
			t.Errorf("%s: error %q does not point at the dataset rebuild", tc.name, err)
		}
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
	if got.Seq != cp.Seq || len(got.Snapshot.Ratings) != len(cp.Snapshot.Ratings) {
		t.Errorf("loaded (seq=%d, %d ratings), want (seq=%d, %d ratings)",
			got.Seq, len(got.Snapshot.Ratings), cp.Seq, len(cp.Snapshot.Ratings))
	}
}
