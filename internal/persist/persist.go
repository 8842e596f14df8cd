// Package persist serializes datasets, graphs, checkpoints and
// trained models (LDA, PureSVD) to a compact, versioned binary
// container. ltr-server reads dataset containers (-format ltrz) and,
// with -wal-dir, the checkpoint on every restart.
//
// Container layout (all integers little-endian):
//
//	magic   [4]byte  "LTRZ"
//	version uint16   container format version (currently 1)
//	kind    uint16   payload type (KindDataset, KindLDA, ...)
//	length  uint64   payload byte count
//	payload [length]byte
//	crc32   uint32   IEEE checksum of payload
//
// Every Load* function verifies magic, version, kind, and checksum before
// decoding, so truncated or corrupted files fail loudly instead of
// producing a silently wrong model.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Kind identifies the payload type of a container.
type Kind uint16

// Payload kinds. The numeric values are part of the on-disk format:
// never reorder or reuse them.
const (
	KindDataset Kind = 1
	KindLDA     Kind = 2
	// KindBiasedMF is retired: its codec is gone and nothing writes or
	// reads it. The value stays reserved so no other payload reuses it.
	KindBiasedMF   Kind = 3
	KindPureSVD    Kind = 4
	KindGraph      Kind = 5
	KindCheckpoint Kind = 6
	// KindSharedCheckpoint is retired: builds that served several
	// replicas over one shared base checkpointed here. Nothing writes it
	// and LoadFleetCheckpoint refuses it; the value stays reserved so no
	// other payload reuses it.
	KindSharedCheckpoint Kind = 7
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case KindDataset:
		return "dataset"
	case KindLDA:
		return "lda-model"
	case KindBiasedMF:
		return "biased-mf"
	case KindPureSVD:
		return "pure-svd"
	case KindGraph:
		return "graph"
	case KindCheckpoint:
		return "fleet-checkpoint"
	case KindSharedCheckpoint:
		return "shared-fleet-checkpoint"
	default:
		return fmt.Sprintf("kind(%d)", uint16(k))
	}
}

const (
	formatVersion = 1
	// maxPayload guards against absurd length prefixes from corrupted
	// headers before allocation (1 GiB).
	maxPayload = 1 << 30
)

var magic = [4]byte{'L', 'T', 'R', 'Z'}

// writeContainer frames an encoded payload and writes it out.
func writeContainer(w io.Writer, kind Kind, payload []byte) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("persist: write magic: %w", err)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint16(hdr[0:2], formatVersion)
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(kind))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(payload)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: write header: %w", err)
	}
	if _, err := bw.Write(payload); err != nil {
		return fmt.Errorf("persist: write payload: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	if _, err := bw.Write(sum[:]); err != nil {
		return fmt.Errorf("persist: write checksum: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("persist: flush: %w", err)
	}
	return nil
}

// readContainer reads and verifies a container of one specific kind,
// returning the payload.
func readContainer(r io.Reader, want Kind) ([]byte, error) {
	k, payload, err := readContainerAny(r)
	if err != nil {
		return nil, err
	}
	if k != want {
		return nil, fmt.Errorf("persist: container holds a %v, want a %v", k, want)
	}
	return payload, nil
}

// readContainerAny reads and verifies a container, returning its kind and
// payload — for callers that dispatch on the kind.
func readContainerAny(r io.Reader) (Kind, []byte, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return 0, nil, fmt.Errorf("persist: read magic: %w", err)
	}
	if m != magic {
		return 0, nil, fmt.Errorf("persist: bad magic %q (not a longtail container)", m[:])
	}
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("persist: read header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != formatVersion {
		return 0, nil, fmt.Errorf("persist: unsupported format version %d (this build reads %d)", v, formatVersion)
	}
	kind := Kind(binary.LittleEndian.Uint16(hdr[2:4]))
	n := binary.LittleEndian.Uint64(hdr[4:12])
	if n > maxPayload {
		return 0, nil, fmt.Errorf("persist: payload length %d exceeds limit %d (corrupt header?)", n, maxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("persist: read payload: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return 0, nil, fmt.Errorf("persist: read checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(sum[:]); got != want {
		return 0, nil, fmt.Errorf("persist: checksum mismatch (payload %08x, recorded %08x): file is corrupted", got, want)
	}
	return kind, payload, nil
}

// enc is an append-only little-endian payload encoder.
type enc struct{ buf []byte }

func (e *enc) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *enc) i(v int) { e.u64(uint64(int64(v))) }

func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) f64s(v []float64) {
	e.i(len(v))
	for _, x := range v {
		e.f64(x)
	}
}

// dec is a sticky-error little-endian payload decoder.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: "+format, args...)
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("payload truncated at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *dec) i() int { return int(int64(d.u64())) }

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count validates a decoded length against remaining payload, assuming
// each element needs at least elemSize bytes.
func (d *dec) count(elemSize int) int {
	n := d.i()
	if d.err != nil {
		return 0
	}
	if n < 0 || elemSize > 0 && n > (len(d.buf)-d.off)/elemSize {
		d.fail("implausible element count %d at offset %d", n, d.off)
		return 0
	}
	return n
}

func (d *dec) f64s() []float64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("persist: %d trailing bytes after payload", len(d.buf)-d.off)
	}
	return nil
}

// SaveFile writes a container to path via save, atomically: the bytes go
// to a temporary file in the target directory, are fsynced, and the temp
// file is renamed over path (then the directory entry is synced). A crash
// at any point leaves either the complete old file or the complete new
// one — never a truncated container — which is what lets the checkpoint
// path treat an existing file as always-loadable.
func SaveFile(path string, save func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := save(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("persist: sync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir makes a rename in dir durable. Best-effort: some filesystems
// reject directory fsync, and the rename itself already guarantees
// old-or-new atomicity — only the window until the next journal flush is
// at stake.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// LoadFile opens path and decodes it via load.
func LoadFile(path string, load func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	return load(bufio.NewReader(f))
}
