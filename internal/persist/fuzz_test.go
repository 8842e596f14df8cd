package persist

import (
	"bytes"
	"testing"

	"longtailrec/internal/dataset"
)

// FuzzLoadDataset asserts the decoder never panics and never returns an
// internally inconsistent dataset, whatever bytes it is fed. Run the seeds
// with `go test`; fuzz with `go test -fuzz FuzzLoadDataset ./internal/persist`.
func FuzzLoadDataset(f *testing.F) {
	// Seed 1: a valid container.
	d, err := dataset.New(3, 4, []dataset.Rating{
		{User: 0, Item: 0, Score: 5},
		{User: 1, Item: 2, Score: 3},
		{User: 2, Item: 3, Score: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDataset(&buf, d); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Seed 2: valid container with the payload length doubled.
	bad := append([]byte(nil), valid...)
	bad[4+4] *= 2
	f.Add(bad)
	// Seed 3: truncated halfway.
	f.Add(valid[:len(valid)/2])
	// Seed 4: empty and garbage.
	f.Add([]byte{})
	f.Add([]byte("LTRZ and then nonsense that is not a real payload at all"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := LoadDataset(bytes.NewReader(raw))
		if err != nil {
			return // rejection is always acceptable
		}
		// Anything accepted must be a self-consistent dataset.
		if got.NumUsers() <= 0 || got.NumItems() <= 0 {
			t.Fatalf("accepted dataset with dims %d×%d", got.NumUsers(), got.NumItems())
		}
		for _, r := range got.Ratings() {
			if r.User < 0 || r.User >= got.NumUsers() || r.Item < 0 || r.Item >= got.NumItems() || r.Score <= 0 {
				t.Fatalf("accepted inconsistent rating %+v", r)
			}
		}
	})
}

// FuzzLoadAnyFleetCheckpoint feeds the decoder every restart reads
// (LoadAnyFleetCheckpoint) arbitrary payloads. The target frames each one
// in a valid container — the legacy KindCheckpoint or the shared-base
// KindSharedCheckpoint, picked by the kind byte's parity — so the
// checksum passes and both payload decoders see every input. Rejection
// is fine; a panic is not, and an accepted image must have the shape
// recovery relies on: at least one shard, and a base universe split
// inside the snapshot universe. Fuzz with
// `go test -fuzz FuzzLoadAnyFleetCheckpoint ./internal/persist`.
func FuzzLoadAnyFleetCheckpoint(f *testing.F) {
	var shared, legacy bytes.Buffer
	if err := SaveSharedFleetCheckpoint(&shared, sharedCheckpointFixture(f)); err != nil {
		f.Fatal(err)
	}
	if err := SaveFleetCheckpoint(&legacy, checkpointFixture(f)); err != nil {
		f.Fatal(err)
	}
	sharedPayload, legacyPayload := containerPayload(shared.Bytes()), containerPayload(legacy.Bytes())
	f.Add(byte(KindSharedCheckpoint), sharedPayload)
	f.Add(byte(KindCheckpoint), legacyPayload)
	// Each payload framed as the other kind.
	f.Add(byte(KindCheckpoint), sharedPayload)
	f.Add(byte(KindSharedCheckpoint), legacyPayload)
	f.Add(byte(KindSharedCheckpoint), sharedPayload[:len(sharedPayload)/2])

	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		k := KindCheckpoint // 6
		if kind%2 == 1 {
			k = KindSharedCheckpoint // 7
		}
		var buf bytes.Buffer
		if err := writeContainer(&buf, k, payload); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadAnyFleetCheckpoint(&buf)
		if err != nil {
			return
		}
		if len(cp.Shards) < 1 {
			t.Fatalf("accepted %v image with no shards", k)
		}
		if cp.BaseUsers < 0 || cp.BaseUsers > cp.Base.NumUsers || cp.BaseItems < 0 || cp.BaseItems > cp.Base.NumItems {
			t.Fatalf("accepted %v image with base split (%d,%d) outside universe (%d,%d)",
				k, cp.BaseUsers, cp.BaseItems, cp.Base.NumUsers, cp.Base.NumItems)
		}
	})
}

// containerPayload strips a container's 16-byte header and 4-byte
// checksum, leaving the payload.
func containerPayload(raw []byte) []byte { return raw[16 : len(raw)-4] }
