package lda

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"longtailrec/internal/dataset"
	"longtailrec/internal/worlds"
)

// referenceToken is one (user, item) occurrence in the expanded corpus.
type referenceToken struct {
	user, item int
	topic      int
}

// referenceTrain is Train before its sampler kept flat counts, one run
// per rating and incremental prefix sums: the plain Algorithm 2 loop, kept
// as the oracle Train must match bit for bit.
//
// It fits the model on the dataset with collapsed Gibbs sampling.
// Rating scores are rounded to the nearest positive integer to form token
// multiplicities, exactly as Algorithm 2 repeats the draw w(u,i) times.
func referenceTrain(d *dataset.Dataset, cfg Config) (*Model, error) {
	if cfg.NumTopics < 1 {
		return nil, fmt.Errorf("lda: NumTopics %d, need >= 1", cfg.NumTopics)
	}
	cfg = cfg.withDefaults()
	k := cfg.NumTopics
	nu, ni := d.NumUsers(), d.NumItems()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Expand ratings into tokens.
	var tokens []referenceToken
	for _, r := range d.Ratings() {
		mult := int(math.Round(r.Score))
		if mult < 1 {
			mult = 1
		}
		for c := 0; c < mult; c++ {
			tokens = append(tokens, referenceToken{user: r.User, item: r.Item})
		}
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("lda: empty corpus")
	}

	// Count matrices (N1..N4 of Algorithm 2).
	nTopicItem := make([][]int, k) // n^{item}_z
	for z := range nTopicItem {
		nTopicItem[z] = make([]int, ni)
	}
	nUserTopic := make([][]int, nu) // n^{u}_z
	for u := range nUserTopic {
		nUserTopic[u] = make([]int, k)
	}
	nTopic := make([]int, k) // n^{•}_z
	nUser := make([]int, nu) // n^{u}_•

	// Random initialization (Algorithm 2 line 2).
	for t := range tokens {
		z := rng.Intn(k)
		tokens[t].topic = z
		nTopicItem[z][tokens[t].item]++
		nUserTopic[tokens[t].user][z]++
		nTopic[z]++
		nUser[tokens[t].user]++
	}

	alpha, beta := cfg.Alpha, cfg.Beta
	niBeta := float64(ni) * beta
	probs := make([]float64, k)
	var trace []TracePoint
	for iter := 0; iter < cfg.Iterations; iter++ {
		for t := range tokens {
			tok := &tokens[t]
			z := tok.topic
			// Remove the current assignment from the counts.
			nTopicItem[z][tok.item]--
			nUserTopic[tok.user][z]--
			nTopic[z]--
			nUser[tok.user]--
			// Eq. 12 (the user-side denominator is constant across z and
			// cancels in normalization, but we keep the full expression for
			// fidelity to Algorithm 2 line 10).
			total := 0.0
			for zz := 0; zz < k; zz++ {
				p := (float64(nTopicItem[zz][tok.item]) + beta) /
					(float64(nTopic[zz]) + niBeta) *
					(float64(nUserTopic[tok.user][zz]) + alpha)
				probs[zz] = p
				total += p
			}
			u := rng.Float64() * total
			acc := 0.0
			zNew := k - 1
			for zz := 0; zz < k; zz++ {
				acc += probs[zz]
				if u < acc {
					zNew = zz
					break
				}
			}
			tok.topic = zNew
			nTopicItem[zNew][tok.item]++
			nUserTopic[tok.user][zNew]++
			nTopic[zNew]++
			nUser[tok.user]++
		}
		if cfg.TraceEvery > 0 && ((iter+1)%cfg.TraceEvery == 0 || iter == cfg.Iterations-1) {
			snap := referenceEstimate(cfg, nu, ni, nUserTopic, nTopicItem, nTopic, nUser)
			trace = append(trace, TracePoint{Iteration: iter + 1, LogLikelihood: snap.LogLikelihood(d)})
		}
	}

	m := referenceEstimate(cfg, nu, ni, nUserTopic, nTopicItem, nTopic, nUser)
	m.trace = trace
	return m, nil
}

// referenceEstimate computes the point estimates of Eq. 13 and Eq. 14 from the
// current Gibbs count matrices.
func referenceEstimate(cfg Config, nu, ni int, nUserTopic, nTopicItem [][]int, nTopic, nUser []int) *Model {
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
			row[z] = (float64(nUserTopic[u][z]) + alpha) / denom
		}
		m.theta[u] = row
	}
	for z := 0; z < k; z++ {
		row := make([]float64, ni)
		denom := float64(nTopic[z]) + niBeta
		for i := 0; i < ni; i++ {
			row[i] = (float64(nTopicItem[z][i]) + beta) / denom
		}
		m.phi[z] = row
	}
	return m
}

// multiplicityCorpus rates with scores that round to every multiplicity
// 1–5, including scores below 0.5 (which count once) and exact halves
// (which round away from zero).
func multiplicityCorpus(t testing.TB) *dataset.Dataset {
	t.Helper()
	scores := []float64{0.2, 0.49, 0.5, 1, 1.49, 1.5, 2.4, 2.5, 3, 3.6, 4.49, 4.5, 5}
	rng := rand.New(rand.NewSource(11))
	var ratings []dataset.Rating
	for u := 0; u < 30; u++ {
		for _, i := range rng.Perm(25)[:3+rng.Intn(8)] {
			ratings = append(ratings, dataset.Rating{User: u, Item: i, Score: scores[rng.Intn(len(scores))]})
		}
	}
	d, err := dataset.New(30, 25, ratings)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTrainMatchesReference holds Train to the plain Algorithm 2 loop bit
// for bit: every θ and φ entry and every trace point, over several K,
// default and explicit priors, every token multiplicity and both trace
// settings.
func TestTrainMatchesReference(t *testing.T) {
	world, err := worlds.Generate("movielens", 1)
	if err != nil {
		t.Fatal(err)
	}
	corpora := []struct {
		name  string
		d     *dataset.Dataset
		iters int
		ks    []int
	}{
		{"genre", genreCorpus(t, 40, 30, 3), 15, []int{1, 2, 7, 20}},
		{"multiplicity", multiplicityCorpus(t), 15, []int{1, 2, 7, 20}},
		{"movielens", world.Data, 3, []int{20}}, // the paper's K; each case costs ~0.3 s
	}
	priors := []struct{ alpha, beta float64 }{{0, 0}, {0.5, 0.05}}
	cases := 0
	for _, c := range corpora {
		for _, k := range c.ks {
			for _, p := range priors {
				for _, every := range []int{0, 7} {
					cfg := Config{NumTopics: k, Alpha: p.alpha, Beta: p.beta, Iterations: c.iters, Seed: int64(k), TraceEvery: every}
					name := fmt.Sprintf("%s/K=%d/alpha=%v/every=%d", c.name, k, p.alpha, every)
					want, err := referenceTrain(c.d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Train(c.d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameModelBits(t, name, got, want)
					cases++
				}
			}
		}
	}
	if cases != (4+4+1)*len(priors)*2 {
		t.Fatalf("ran %d cases", cases)
	}
}

// sameModelBits fails unless got and want hold the same float64 bits in
// every θ, φ and trace entry.
func sameModelBits(t *testing.T, name string, got, want *Model) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() || got.NumItems() != want.NumItems() || got.NumTopics() != want.NumTopics() {
		t.Fatalf("%s: shape %d×%d×%d, want %d×%d×%d", name,
			got.NumUsers(), got.NumItems(), got.NumTopics(), want.NumUsers(), want.NumItems(), want.NumTopics())
	}
	for u := 0; u < want.NumUsers(); u++ {
		for z, w := range want.Theta(u) {
			if g := got.Theta(u)[z]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: θ[%d][%d] = %v, want %v", name, u, z, g, w)
			}
		}
	}
	for z := 0; z < want.NumTopics(); z++ {
		for i, w := range want.Phi(z) {
			if g := got.Phi(z)[i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: φ[%d][%d] = %v, want %v", name, z, i, g, w)
			}
		}
	}
	gt, wt := got.Trace(), want.Trace()
	if len(gt) != len(wt) {
		t.Fatalf("%s: %d trace points, want %d", name, len(gt), len(wt))
	}
	for n := range wt {
		if gt[n].Iteration != wt[n].Iteration || math.Float64bits(gt[n].LogLikelihood) != math.Float64bits(wt[n].LogLikelihood) {
			t.Fatalf("%s: trace point %d = %+v, want %+v", name, n, gt[n], wt[n])
		}
	}
}
