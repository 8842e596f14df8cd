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

// FuzzLoadFleetCheckpoint feeds the decoder every restart reads
// (LoadFleetCheckpoint) arbitrary payloads, each framed in a valid
// KindCheckpoint container so the checksum passes and the payload decoder
// sees every input. Rejection is fine; a panic is not, and an accepted
// image must have the shape recovery relies on: a base universe split
// inside the snapshot universe. Fuzz with
// `go test -fuzz FuzzLoadFleetCheckpoint ./internal/persist`.
func FuzzLoadFleetCheckpoint(f *testing.F) {
	var valid bytes.Buffer
	if err := SaveFleetCheckpoint(&valid, checkpointFixture(f)); err != nil {
		f.Fatal(err)
	}
	payload := containerPayload(valid.Bytes())
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{})
	// The same image under an image count of 0 and of 2.
	for _, n := range []int{0, 2} {
		var e enc
		e.u64(17)
		e.i(n)
		for k := 0; k < n; k++ {
			e.buf = append(e.buf, payload[16:]...)
		}
		f.Add(e.buf)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		if err := writeContainer(&buf, KindCheckpoint, payload); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadFleetCheckpoint(&buf)
		if err != nil {
			return
		}
		if cp.BaseUsers < 0 || cp.BaseUsers > cp.Snapshot.NumUsers || cp.BaseItems < 0 || cp.BaseItems > cp.Snapshot.NumItems {
			t.Fatalf("accepted an image with base split (%d,%d) outside universe (%d,%d)",
				cp.BaseUsers, cp.BaseItems, cp.Snapshot.NumUsers, cp.Snapshot.NumItems)
		}
	})
}

// containerPayload strips a container's 16-byte header and 4-byte
// checksum, leaving the payload.
func containerPayload(raw []byte) []byte { return raw[16 : len(raw)-4] }
