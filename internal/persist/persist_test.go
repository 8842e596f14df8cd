package persist

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"longtailrec/internal/dataset"
	"longtailrec/internal/lda"
	"longtailrec/internal/svd"
)

func testDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var ratings []dataset.Rating
	for u := 0; u < 12; u++ {
		for i := 0; i < 15; i++ {
			if rng.Float64() < 0.5 {
				continue
			}
			ratings = append(ratings, dataset.Rating{User: u, Item: i, Score: float64(1 + rng.Intn(5))})
		}
	}
	d, err := dataset.New(12, 15, ratings)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDatasetRoundTrip(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := SaveDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumUsers() != d.NumUsers() || got.NumItems() != d.NumItems() || got.NumRatings() != d.NumRatings() {
		t.Fatalf("dims changed: %d/%d/%d vs %d/%d/%d",
			got.NumUsers(), got.NumItems(), got.NumRatings(),
			d.NumUsers(), d.NumItems(), d.NumRatings())
	}
	want := d.Ratings()
	have := got.Ratings()
	for k := range want {
		if want[k] != have[k] {
			t.Fatalf("rating %d changed: %+v vs %+v", k, have[k], want[k])
		}
	}
}

// TestGraphRoundTrip: write -> save -> load preserves every edge and the
// epoch, with the writes still pending in the delta overlay at save time
// (the silent-data-loss case: snapshotting must merge the overlay, not
// just the compacted CSR) and the universe grown past the built one.
func TestGraphRoundTrip(t *testing.T) {
	g := testDataset(t).Graph()
	// Live phase: re-rate, insert, and auto-grow — all left uncompacted.
	if err := g.UpdateRating(0, 0, 2.5); err != nil {
		if _, aerr := g.UpsertRating(0, 0, 2.5); aerr != nil {
			t.Fatal(err, aerr)
		}
	}
	if _, err := g.UpsertRating(11, 14, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := g.UpsertRatingAutoGrow(13, 17, 5); err != nil {
		t.Fatal(err)
	}
	if g.PendingWrites() == 0 {
		t.Fatal("test needs pending overlay writes at save time")
	}

	var buf bytes.Buffer
	if err := SaveGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumUsers() != g.NumUsers() || got.NumItems() != g.NumItems() {
		t.Fatalf("universe changed: %d/%d vs %d/%d",
			got.NumUsers(), got.NumItems(), g.NumUsers(), g.NumItems())
	}
	if got.Epoch() != g.Epoch() {
		t.Fatalf("epoch changed: %d vs %d", got.Epoch(), g.Epoch())
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", got.NumEdges(), g.NumEdges())
	}
	if math.Abs(got.TotalWeight()-g.TotalWeight()) > 1e-12 {
		t.Fatalf("total weight changed: %v vs %v", got.TotalWeight(), g.TotalWeight())
	}
	for u := 0; u < g.NumUsers(); u++ {
		items, ws := g.UserItems(u)
		gotItems, gotWs := got.UserItems(u)
		if len(items) != len(gotItems) {
			t.Fatalf("user %d has %d ratings after round-trip, want %d", u, len(gotItems), len(items))
		}
		for k := range items {
			if items[k] != gotItems[k] || ws[k] != gotWs[k] {
				t.Fatalf("user %d rating %d changed: (%d,%v) vs (%d,%v)",
					u, k, gotItems[k], gotWs[k], items[k], ws[k])
			}
		}
	}
}

func TestGraphWrongKindRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveDataset(&buf, testDataset(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGraph(&buf); err == nil || !strings.Contains(err.Error(), "holds a dataset") {
		t.Fatalf("dataset container accepted as graph: %v", err)
	}
}

func TestSaveNilInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveDataset(&buf, nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if err := SaveLDA(&buf, nil); err == nil {
		t.Fatal("nil LDA accepted")
	}
	if err := SavePureSVD(&buf, nil); err == nil {
		t.Fatal("nil PureSVD accepted")
	}
	if err := SaveGraph(&buf, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestLDARoundTrip(t *testing.T) {
	d := testDataset(t)
	m, err := lda.Train(d, lda.Config{NumTopics: 3, Iterations: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveLDA(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLDA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTopics() != m.NumTopics() || got.NumUsers() != m.NumUsers() || got.NumItems() != m.NumItems() {
		t.Fatal("model dimensions changed")
	}
	a1, b1 := m.Priors()
	a2, b2 := got.Priors()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("priors changed: (%v,%v) vs (%v,%v)", a2, b2, a1, b1)
	}
	for u := 0; u < m.NumUsers(); u++ {
		for i := 0; i < m.NumItems(); i++ {
			if w, g := m.Score(u, i), got.Score(u, i); w != g {
				t.Fatalf("score(%d,%d) changed: %v vs %v", u, i, g, w)
			}
		}
	}
}

func TestPureSVDRoundTrip(t *testing.T) {
	d := testDataset(t)
	m, err := svd.NewPureSVD(d, svd.Options{Rank: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePureSVD(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPureSVD(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < d.NumUsers(); u++ {
		sa := m.ScoreAll(u, nil)
		sb := got.ScoreAll(u, nil)
		for i := range sa {
			if math.Abs(sa[i]-sb[i]) > 1e-15 {
				t.Fatalf("score(%d,%d) changed: %v vs %v", u, i, sb[i], sa[i])
			}
		}
	}
	// Binding to a mismatched dataset must fail, not mis-score.
	other, err := dataset.New(3, 4, []dataset.Rating{{User: 0, Item: 0, Score: 5}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := SavePureSVD(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPureSVD(&buf, other); err == nil {
		t.Fatal("mismatched dataset accepted")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := SaveDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload byte (after the 16-byte header).
	for _, pos := range []int{16, 20, len(raw) - 10} {
		mangled := append([]byte(nil), raw...)
		mangled[pos] ^= 0x40
		_, err := LoadDataset(bytes.NewReader(mangled))
		if err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := SaveDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 3, 4, 15, 16, len(raw) / 2, len(raw) - 1} {
		if _, err := LoadDataset(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestWrongMagicRejected(t *testing.T) {
	if _, err := LoadDataset(strings.NewReader("not a container at all")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestWrongKindRejected(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := SaveDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLDA(&buf); err == nil || !strings.Contains(err.Error(), "holds a dataset") {
		t.Fatalf("kind mismatch not reported usefully: %v", err)
	}
}

func TestWrongVersionRejected(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := SaveDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // version low byte
	if _, err := LoadDataset(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not reported: %v", err)
	}
}

func TestImplausibleLengthRejected(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := SaveDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Set the payload length to 2 GiB; the reader must refuse before
	// allocating.
	raw[8], raw[9], raw[10], raw[11] = 0, 0, 0, 0x80
	if _, err := LoadDataset(bytes.NewReader(raw)); err == nil {
		t.Fatal("2 GiB length accepted")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindDataset:  "dataset",
		KindLDA:      "lda-model",
		KindBiasedMF: "biased-mf",
		KindPureSVD:  "pure-svd",
		Kind(77):     "kind(77)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestFileHelpers(t *testing.T) {
	d := testDataset(t)
	path := filepath.Join(t.TempDir(), "data.ltrz")
	if err := SaveFile(path, func(w io.Writer) error { return SaveDataset(w, d) }); err != nil {
		t.Fatal(err)
	}
	var got *dataset.Dataset
	if err := LoadFile(path, func(r io.Reader) error {
		var lerr error
		got, lerr = LoadDataset(r)
		return lerr
	}); err != nil {
		t.Fatal(err)
	}
	if got.NumRatings() != d.NumRatings() {
		t.Fatal("file round trip lost ratings")
	}
	if err := LoadFile(filepath.Join(t.TempDir(), "missing.ltrz"), func(io.Reader) error { return nil }); err == nil {
		t.Fatal("missing file accepted")
	}
}
