// Checkpoint codec (KindCheckpoint): the durable image the WAL truncates
// behind.
//
// A checkpoint captures the serving graph as a full snapshot PLUS its base
// universe split, together with the write-ahead-log sequence number the
// image covers. Recovery loads the checkpoint, rebuilds the graph with
// graph.FromSnapshotWithBase (preserving the base split that
// offline-trained models validate against), and replays only WAL records
// with seq >= Seq; records below Seq are already inside the image, so
// replay over a checkpoint is idempotent by construction.
//
// The payload is the sequence number, an image count and the images. The
// count is always 1: builds that served several user-partitioned replicas
// wrote one image per replica here, or a KindSharedCheckpoint, and neither
// can restore into one graph without losing the writes each replica held
// alone — such a file is refused with a pointer to the dataset rebuild.

package persist

import (
	"fmt"
	"io"

	"longtailrec/internal/graph"
)

// FleetCheckpoint is the serving graph's durable image.
type FleetCheckpoint struct {
	// Seq is the WAL sequence the image covers, exclusive: every record
	// with sequence < Seq is folded into the image. Replay after restore
	// starts at Seq.
	Seq uint64
	// BaseUsers and BaseItems record the graph's compiled base universe —
	// the split FromSnapshotWithBase restores so that models trained
	// against the dataset universe still validate after a restart, even
	// when users and items were admitted live since.
	BaseUsers, BaseItems int
	Snapshot             graph.GraphSnapshot
}

// SaveFleetCheckpoint writes a checkpoint container.
func SaveFleetCheckpoint(w io.Writer, cp *FleetCheckpoint) error {
	if cp == nil {
		return fmt.Errorf("persist: nil checkpoint")
	}
	var e enc
	e.u64(cp.Seq)
	e.i(1) // image count
	e.i(cp.BaseUsers)
	e.i(cp.BaseItems)
	e.i(cp.Snapshot.NumUsers)
	e.i(cp.Snapshot.NumItems)
	e.u64(cp.Snapshot.Epoch)
	e.i(len(cp.Snapshot.Ratings))
	for _, r := range cp.Snapshot.Ratings {
		e.i(r.User)
		e.i(r.Item)
		e.f64(r.Weight)
	}
	return writeContainer(w, KindCheckpoint, e.buf)
}

// LoadFleetCheckpoint reads a checkpoint container. Decoded shapes are
// plausibility-checked here; full graph validation happens when the
// caller rebuilds the graph through graph.FromSnapshotWithBase, so a
// tampered payload that passes the checksum still cannot produce an
// inconsistent graph. A multi-replica checkpoint — a KindSharedCheckpoint,
// or a KindCheckpoint holding more than one image — is refused.
func LoadFleetCheckpoint(r io.Reader) (*FleetCheckpoint, error) {
	kind, payload, err := readContainerAny(r)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindCheckpoint:
		return decodeFleetCheckpoint(payload)
	case KindSharedCheckpoint:
		return nil, fmt.Errorf("persist: container holds a %v of several replicas: rebuild from the dataset", kind)
	default:
		return nil, fmt.Errorf("persist: container holds a %v, want a %v", kind, KindCheckpoint)
	}
}

// decodeFleetCheckpoint decodes a verified KindCheckpoint payload.
func decodeFleetCheckpoint(payload []byte) (*FleetCheckpoint, error) {
	d := dec{buf: payload}
	cp := &FleetCheckpoint{Seq: d.u64()}
	if n := d.count(40); d.err == nil && n != 1 {
		return nil, fmt.Errorf("persist: checkpoint holds %d graph images, want 1: rebuild from the dataset", n)
	}
	cp.BaseUsers = d.i()
	cp.BaseItems = d.i()
	cp.Snapshot.NumUsers = d.i()
	cp.Snapshot.NumItems = d.i()
	cp.Snapshot.Epoch = d.u64()
	cp.Snapshot.Ratings = make([]graph.Rating, d.count(24))
	for j := range cp.Snapshot.Ratings {
		cp.Snapshot.Ratings[j] = graph.Rating{User: d.i(), Item: d.i(), Weight: d.f64()}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	if cp.BaseUsers < 0 || cp.BaseUsers > cp.Snapshot.NumUsers ||
		cp.BaseItems < 0 || cp.BaseItems > cp.Snapshot.NumItems {
		return nil, fmt.Errorf("persist: base universe (%d,%d) outside snapshot universe (%d,%d)",
			cp.BaseUsers, cp.BaseItems, cp.Snapshot.NumUsers, cp.Snapshot.NumItems)
	}
	return cp, nil
}
