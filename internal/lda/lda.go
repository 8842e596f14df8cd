// Package lda implements the paper's LDA variant for rating data
// (§4.2.3, Algorithm 2): each user is a document whose "words" are the
// items they rated, with the rating score w(u,i) acting as the term
// frequency — a rating of 4 contributes four tokens of that item. The
// model is trained by collapsed Gibbs sampling (Eq. 12) and exposes the
// per-user topic distribution θ (Eq. 14), the per-topic item distribution
// φ (Eq. 13), the topic-based user entropy of Eq. 11, and the
// score(u,i) = Σ_z θ_uz·φ_zi ranking used by the LDA recommender baseline.
package lda

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"longtailrec/internal/dataset"
)

// Config collects the LDA hyper-parameters. The paper's defaults are
// α = 50/K and β = 0.1 (§5.2).
type Config struct {
	NumTopics  int     // K; required, must be >= 1
	Alpha      float64 // Dirichlet prior on θ; <= 0 means 50/K
	Beta       float64 // Dirichlet prior on φ; <= 0 means 0.1
	Iterations int     // Gibbs sweeps; <= 0 means 100
	Seed       int64   // RNG seed for reproducibility
	// TraceEvery, when > 0, records the training-corpus log-likelihood
	// every TraceEvery sweeps (plus after the final sweep) into the
	// model's Trace — a convergence diagnostic costing one extra point
	// estimation per checkpoint.
	TraceEvery int
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 50 / float64(c.NumTopics)
	}
	if c.Beta <= 0 {
		c.Beta = 0.1
	}
	if c.Iterations <= 0 {
		c.Iterations = 100
	}
	return c
}

// Model is a trained topic model over a rating corpus.
type Model struct {
	numTopics, numUsers, numItems int
	alpha, beta                   float64
	theta                         [][]float64 // numUsers × K
	phi                           [][]float64 // K × numItems
	trace                         []TracePoint
}

// TracePoint is one convergence checkpoint of Gibbs training.
type TracePoint struct {
	Iteration     int // 1-based sweep count at the checkpoint
	LogLikelihood float64
}

// run is one rating: mult consecutive tokens of one (user, item) pair.
type run struct {
	user, item, mult int32
}

// Train fits the model on the dataset with collapsed Gibbs sampling.
// Rating scores are rounded to the nearest positive integer to form token
// multiplicities, exactly as Algorithm 2 repeats the draw w(u,i) times.
//
// It draws Algorithm 2's exact chain: tokens in rating order, one
// rng.Float64 each, Eq. 12 with the same arithmetic, and the first topic
// whose running sum exceeds the draw. Its reuse is exact: between two
// tokens of one rating only two topics' counts move (the previous token's
// new topic and this token's old one), so only their Eq. 12 terms and the
// running sums from the lower one on are recomputed; every other term and
// sum is the same float64 expression over the same counts.
func Train(d *dataset.Dataset, cfg Config) (*Model, error) {
	if cfg.NumTopics < 1 {
		return nil, fmt.Errorf("lda: NumTopics %d, need >= 1", cfg.NumTopics)
	}
	cfg = cfg.withDefaults()
	k := cfg.NumTopics
	nu, ni := d.NumUsers(), d.NumItems()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Count matrices (N1..N4 of Algorithm 2), item- and user-major. A
	// token leaves and rejoins the same user, so n^{u}_• is counted once.
	nItemTopic := make([]int32, ni*k) // n^{item}_z at [item*k+z]
	nUserTopic := make([]int32, nu*k) // n^{u}_z at [u*k+z]
	nTopic := make([]int32, k)        // n^{•}_z
	nUser := make([]int32, nu)        // n^{u}_•
	runs := make([]run, d.NumRatings())
	numTokens := 0
	for n := range runs {
		r := d.Rating(n)
		mult := max(1, int(math.Round(r.Score)))
		runs[n] = run{user: int32(r.User), item: int32(r.Item), mult: int32(mult)}
		nUser[r.User] += int32(mult)
		numTokens += mult
	}
	if numTokens == 0 {
		return nil, fmt.Errorf("lda: empty corpus")
	}

	// Random initialization (Algorithm 2 line 2).
	topics := make([]int32, 0, numTokens)
	for _, r := range runs {
		for range r.mult {
			z := rng.Intn(k)
			topics = append(topics, int32(z))
			nItemTopic[int(r.item)*k+z]++
			nUserTopic[int(r.user)*k+z]++
			nTopic[z]++
		}
	}

	alpha, beta := cfg.Alpha, cfg.Beta
	niBeta := float64(ni) * beta
	probs := make([]float64, k)
	cum := make([]float64, k+1) // cum[z+1] = probs[0] + … + probs[z]
	var trace []TracePoint
	for iter := 0; iter < cfg.Iterations; iter++ {
		t := 0
		for _, r := range runs {
			item := nItemTopic[int(r.item)*k:][:k]
			user := nUserTopic[int(r.user)*k:][:k]
			// Eq. 12 (the user-side denominator is constant across z and
			// cancels in normalization, but we keep the full expression for
			// fidelity to Algorithm 2 line 10).
			eq12 := func(zz int) float64 {
				return (float64(item[zz]) + beta) /
					(float64(nTopic[zz]) + niBeta) *
					(float64(user[zz]) + alpha)
			}
			prev := -1 // the previous token's new topic, within this run
			for range r.mult {
				z := int(topics[t])
				// Remove the current assignment from the counts.
				item[z]--
				user[z]--
				nTopic[z]--
				from := k
				switch {
				case prev < 0:
					for zz := range probs {
						probs[zz] = eq12(zz)
					}
					from = 0
				case prev != z:
					probs[prev], probs[z] = eq12(prev), eq12(z)
					from = min(prev, z)
				}
				acc := cum[from]
				for zz := from; zz < k; zz++ {
					acc += probs[zz]
					cum[zz+1] = acc
				}
				u := rng.Float64() * cum[k]
				zNew := k - 1
				for zz, s := range cum[1:] {
					if u < s {
						zNew = zz
						break
					}
				}
				topics[t] = int32(zNew)
				item[zNew]++
				user[zNew]++
				nTopic[zNew]++
				prev = zNew
				t++
			}
		}
		if cfg.TraceEvery > 0 && ((iter+1)%cfg.TraceEvery == 0 || iter == cfg.Iterations-1) {
			snap := estimate(cfg, nu, ni, nUserTopic, nItemTopic, nTopic, nUser)
			trace = append(trace, TracePoint{Iteration: iter + 1, LogLikelihood: snap.LogLikelihood(d)})
		}
	}

	m := estimate(cfg, nu, ni, nUserTopic, nItemTopic, nTopic, nUser)
	m.trace = trace
	return m, nil
}

// estimate computes the point estimates of Eq. 13 and Eq. 14 from the
// current Gibbs count matrices.
func estimate(cfg Config, nu, ni int, nUserTopic, nItemTopic, nTopic, nUser []int32) *Model {
	k := cfg.NumTopics
	alpha, beta := cfg.Alpha, cfg.Beta
	m := &Model{
		numTopics: k, numUsers: nu, numItems: ni,
		alpha: alpha, beta: beta,
		theta: make([][]float64, nu),
		phi:   make([][]float64, k),
	}
	ktAlpha := float64(k) * alpha
	niBeta := float64(ni) * beta
	for u := 0; u < nu; u++ {
		row := make([]float64, k)
		denom := float64(nUser[u]) + ktAlpha
		for z := 0; z < k; z++ {
			row[z] = (float64(nUserTopic[u*k+z]) + alpha) / denom
		}
		m.theta[u] = row
	}
	for z := 0; z < k; z++ {
		row := make([]float64, ni)
		denom := float64(nTopic[z]) + niBeta
		for i := 0; i < ni; i++ {
			row[i] = (float64(nItemTopic[i*k+z]) + beta) / denom
		}
		m.phi[z] = row
	}
	return m
}

// Trace returns the convergence checkpoints recorded during training
// (empty unless Config.TraceEvery was set).
func (m *Model) Trace() []TracePoint {
	out := make([]TracePoint, len(m.trace))
	copy(out, m.trace)
	return out
}

// NumTopics returns K.
func (m *Model) NumTopics() int { return m.numTopics }

// NumUsers returns the user-universe size.
func (m *Model) NumUsers() int { return m.numUsers }

// NumItems returns the item-universe size.
func (m *Model) NumItems() int { return m.numItems }

// Priors returns the Dirichlet hyper-parameters (α, β) the model was
// trained with.
func (m *Model) Priors() (alpha, beta float64) { return m.alpha, m.beta }

// Theta returns user u's topic distribution θ_u (aliases internal storage).
func (m *Model) Theta(u int) []float64 { return m.theta[u] }

// Phi returns topic z's item distribution φ_z (aliases internal storage).
func (m *Model) Phi(z int) []float64 { return m.phi[z] }

// Score predicts user u's affinity to item i: Σ_z θ_uz·φ_zi.
func (m *Model) Score(u, i int) float64 {
	th := m.theta[u]
	s := 0.0
	for z, t := range th {
		s += t * m.phi[z][i]
	}
	return s
}

// ScoreAll fills out[i] = Score(u, i) for every item, reusing out if it has
// the right length.
func (m *Model) ScoreAll(u int, out []float64) []float64 {
	if len(out) != m.numItems {
		out = make([]float64, m.numItems)
	}
	for i := range out {
		out[i] = 0
	}
	th := m.theta[u]
	for z, t := range th {
		if t == 0 {
			continue
		}
		row := m.phi[z]
		for i, p := range row {
			out[i] += t * p
		}
	}
	return out
}

// UserEntropy computes the topic-based user entropy of Eq. 11:
// E(u) = -Σ_z θ_uz·log θ_uz (natural log).
func (m *Model) UserEntropy(u int) float64 {
	e := 0.0
	for _, p := range m.theta[u] {
		if p > 0 {
			e -= p * math.Log(p)
		}
	}
	return e
}

// TopicItem pairs an item with its probability under a topic.
type TopicItem struct {
	Item int
	Prob float64
}

// TopItems returns topic z's n highest-probability items in descending
// order — the Table 1 view of the model.
func (m *Model) TopItems(z, n int) []TopicItem {
	row := m.phi[z]
	items := make([]TopicItem, len(row))
	for i, p := range row {
		items[i] = TopicItem{Item: i, Prob: p}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].Prob != items[b].Prob {
			return items[a].Prob > items[b].Prob
		}
		return items[a].Item < items[b].Item
	})
	if n > len(items) {
		n = len(items)
	}
	return items[:n]
}

// LogLikelihood returns the corpus log-likelihood of the dataset under the
// trained point estimates: Σ_{u,i} round(w(u,i))·log Σ_z θ_uz·φ_zi.
// Used to verify Gibbs training actually improves fit over a random model.
func (m *Model) LogLikelihood(d *dataset.Dataset) float64 {
	ll := 0.0
	for _, r := range d.Ratings() {
		mult := math.Round(r.Score)
		if mult < 1 {
			mult = 1
		}
		p := m.Score(r.User, r.Item)
		if p <= 0 {
			p = 1e-300
		}
		ll += mult * math.Log(p)
	}
	return ll
}

// FromParameters reconstructs a model from point estimates — the loading
// half of model persistence. theta must be numUsers × K and phi K ×
// numItems with K ≥ 1; rows are copied. Hyper-parameters are metadata
// only (scoring needs just θ and φ).
func FromParameters(alpha, beta float64, theta, phi [][]float64) (*Model, error) {
	if len(phi) == 0 {
		return nil, fmt.Errorf("lda: FromParameters: empty phi")
	}
	k := len(phi)
	ni := len(phi[0])
	if ni == 0 {
		return nil, fmt.Errorf("lda: FromParameters: empty phi rows")
	}
	for z, row := range phi {
		if len(row) != ni {
			return nil, fmt.Errorf("lda: FromParameters: phi row %d has %d items, want %d", z, len(row), ni)
		}
	}
	if len(theta) == 0 {
		return nil, fmt.Errorf("lda: FromParameters: empty theta")
	}
	for u, row := range theta {
		if len(row) != k {
			return nil, fmt.Errorf("lda: FromParameters: theta row %d has %d topics, want %d", u, len(row), k)
		}
	}
	m := &Model{
		numTopics: k, numUsers: len(theta), numItems: ni,
		alpha: alpha, beta: beta,
		theta: make([][]float64, len(theta)),
		phi:   make([][]float64, k),
	}
	for u, row := range theta {
		m.theta[u] = append([]float64(nil), row...)
	}
	for z, row := range phi {
		m.phi[z] = append([]float64(nil), row...)
	}
	return m, nil
}

// RandomModel returns an untrained model with Dirichlet-random θ and φ —
// the null baseline for likelihood comparisons in tests.
func RandomModel(numUsers, numItems int, cfg Config) (*Model, error) {
	if cfg.NumTopics < 1 {
		return nil, fmt.Errorf("lda: NumTopics %d, need >= 1", cfg.NumTopics)
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		numTopics: cfg.NumTopics, numUsers: numUsers, numItems: numItems,
		alpha: cfg.Alpha, beta: cfg.Beta,
		theta: make([][]float64, numUsers),
		phi:   make([][]float64, cfg.NumTopics),
	}
	for u := range m.theta {
		m.theta[u] = dirichlet(rng, cfg.Alpha, cfg.NumTopics)
	}
	for z := range m.phi {
		m.phi[z] = dirichlet(rng, cfg.Beta+0.5, numItems)
	}
	return m, nil
}

// dirichlet draws a symmetric Dirichlet sample without importing randutil
// (avoiding a dependency cycle risk is not the issue — keeping lda
// self-contained for reuse is).
func dirichlet(rng *rand.Rand, alpha float64, k int) []float64 {
	out := make([]float64, k)
	total := 0.0
	for i := range out {
		// Marsaglia-Tsang via sum of exponentials is inadequate for
		// non-integer alpha; use the simple boost trick with Gamma(α+1).
		g := gammaDraw(rng, alpha)
		out[i] = g
		total += g
	}
	if total == 0 {
		out[rng.Intn(k)] = 1
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

func gammaDraw(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
