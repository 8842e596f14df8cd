// Per-type codecs: Dataset, Graph, LDA model, PureSVD.

package persist

import (
	"fmt"
	"io"

	"longtailrec/internal/dataset"
	"longtailrec/internal/graph"
	"longtailrec/internal/lda"
	"longtailrec/internal/linalg"
	"longtailrec/internal/svd"
)

// SaveDataset writes a dataset container.
func SaveDataset(w io.Writer, d *dataset.Dataset) error {
	if d == nil {
		return fmt.Errorf("persist: nil dataset")
	}
	var e enc
	e.i(d.NumUsers())
	e.i(d.NumItems())
	ratings := d.Ratings()
	e.i(len(ratings))
	for _, r := range ratings {
		e.i(r.User)
		e.i(r.Item)
		e.f64(r.Score)
	}
	return writeContainer(w, KindDataset, e.buf)
}

// LoadDataset reads a dataset container. The result is re-validated
// through dataset.New, so a tampered payload that passes the checksum
// still cannot produce an inconsistent dataset.
func LoadDataset(r io.Reader) (*dataset.Dataset, error) {
	payload, err := readContainer(r, KindDataset)
	if err != nil {
		return nil, err
	}
	d := dec{buf: payload}
	nu := d.i()
	ni := d.i()
	n := d.count(24)
	ratings := make([]dataset.Rating, n)
	for k := range ratings {
		ratings[k] = dataset.Rating{User: d.i(), Item: d.i(), Score: d.f64()}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	out, err := dataset.New(nu, ni, ratings)
	if err != nil {
		return nil, fmt.Errorf("persist: decoded dataset invalid: %w", err)
	}
	return out, nil
}

// SaveGraph writes a live-graph container. The graph is serialized through
// Snapshot(), which merges the compacted CSR with the pending delta
// overlay under one read lock — a save taken mid-write-stream loses
// nothing, including users and items admitted live — and records the
// write epoch so a reloaded graph resumes the same cache-invalidation
// counter rather than restarting at zero. The reloaded graph treats the
// saved (grown) universe as its base: models snapshot-trained before the
// growth must be retrained against it (see graph.GraphSnapshot).
func SaveGraph(w io.Writer, g *graph.Bipartite) error {
	if g == nil {
		return fmt.Errorf("persist: nil graph")
	}
	snap := g.Snapshot()
	var e enc
	e.i(snap.NumUsers)
	e.i(snap.NumItems)
	e.u64(snap.Epoch)
	e.i(len(snap.Ratings))
	for _, r := range snap.Ratings {
		e.i(r.User)
		e.i(r.Item)
		e.f64(r.Weight)
	}
	return writeContainer(w, KindGraph, e.buf)
}

// LoadGraph reads a graph container written by SaveGraph. The result is
// rebuilt through the validating graph builder, so a tampered payload that
// passes the checksum still cannot produce an inconsistent graph.
func LoadGraph(r io.Reader) (*graph.Bipartite, error) {
	payload, err := readContainer(r, KindGraph)
	if err != nil {
		return nil, err
	}
	d := dec{buf: payload}
	var snap graph.GraphSnapshot
	snap.NumUsers = d.i()
	snap.NumItems = d.i()
	snap.Epoch = d.u64()
	n := d.count(24)
	snap.Ratings = make([]graph.Rating, n)
	for k := range snap.Ratings {
		snap.Ratings[k] = graph.Rating{User: d.i(), Item: d.i(), Weight: d.f64()}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	g, err := graph.FromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("persist: decoded graph invalid: %w", err)
	}
	return g, nil
}

// SaveLDA writes a trained topic model container.
func SaveLDA(w io.Writer, m *lda.Model) error {
	if m == nil {
		return fmt.Errorf("persist: nil LDA model")
	}
	var e enc
	alpha, beta := m.Priors()
	e.f64(alpha)
	e.f64(beta)
	e.i(m.NumTopics())
	e.i(m.NumUsers())
	e.i(m.NumItems())
	for u := 0; u < m.NumUsers(); u++ {
		e.f64s(m.Theta(u))
	}
	for z := 0; z < m.NumTopics(); z++ {
		e.f64s(m.Phi(z))
	}
	return writeContainer(w, KindLDA, e.buf)
}

// LoadLDA reads a trained topic model container.
func LoadLDA(r io.Reader) (*lda.Model, error) {
	payload, err := readContainer(r, KindLDA)
	if err != nil {
		return nil, err
	}
	d := dec{buf: payload}
	alpha := d.f64()
	beta := d.f64()
	k := d.count(8)
	nu := d.count(8)
	ni := d.count(8)
	theta := make([][]float64, nu)
	for u := range theta {
		theta[u] = d.f64s()
	}
	phi := make([][]float64, k)
	for z := range phi {
		phi[z] = d.f64s()
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	m, err := lda.FromParameters(alpha, beta, theta, phi)
	if err != nil {
		return nil, fmt.Errorf("persist: decoded LDA model invalid: %w", err)
	}
	if m.NumItems() != ni {
		return nil, fmt.Errorf("persist: decoded LDA model has %d items, header says %d", m.NumItems(), ni)
	}
	return m, nil
}

// SavePureSVD writes the right-factor matrix of a PureSVD model. The
// dataset is not stored (it is large and typically persisted separately);
// LoadPureSVD re-attaches one.
func SavePureSVD(w io.Writer, m *svd.PureSVD) error {
	if m == nil {
		return fmt.Errorf("persist: nil PureSVD model")
	}
	v := m.V()
	rows, cols := v.Dims()
	var e enc
	e.i(rows)
	e.i(cols)
	e.i(m.Rank())
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			e.f64(v.At(i, j))
		}
	}
	return writeContainer(w, KindPureSVD, e.buf)
}

// LoadPureSVD reads a PureSVD container and binds it to the dataset whose
// rating rows the model scores with (normally the same training data,
// reloaded via LoadDataset).
func LoadPureSVD(r io.Reader, d *dataset.Dataset) (*svd.PureSVD, error) {
	payload, err := readContainer(r, KindPureSVD)
	if err != nil {
		return nil, err
	}
	dd := dec{buf: payload}
	rows := dd.count(8)
	cols := dd.count(1)
	rank := dd.i()
	if dd.err == nil && (cols <= 0 || rows <= 0) {
		return nil, fmt.Errorf("persist: PureSVD factor matrix %d×%d invalid", rows, cols)
	}
	if dd.err == nil && rows*cols*8 != len(payload)-dd.off {
		return nil, fmt.Errorf("persist: PureSVD factor matrix %d×%d does not match %d payload bytes",
			rows, cols, len(payload)-dd.off)
	}
	var v *linalg.Dense
	if dd.err == nil {
		v = linalg.NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				v.Set(i, j, dd.f64())
			}
		}
	}
	if err := dd.finish(); err != nil {
		return nil, err
	}
	m, err := svd.FromFactors(d, v, rank)
	if err != nil {
		return nil, fmt.Errorf("persist: decoded PureSVD invalid: %w", err)
	}
	return m, nil
}
