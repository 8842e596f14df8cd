package lda

import (
	"math"
	"math/rand"
	"testing"

	"longtailrec/internal/dataset"
	"longtailrec/internal/worlds"
)

// genreCorpus builds a corpus with two disjoint taste clusters: users
// 0..nu/2-1 rate only items 0..ni/2-1 ("animation"), the rest rate only
// items ni/2..ni-1 ("action"). A well-trained 2-topic model must separate
// them.
func genreCorpus(t testing.TB, nu, ni int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ratings []dataset.Rating
	half := ni / 2
	for u := 0; u < nu; u++ {
		var lo, hi int
		if u < nu/2 {
			lo, hi = 0, half
		} else {
			lo, hi = half, ni
		}
		k := 4 + rng.Intn(4)
		seen := map[int]bool{}
		for n := 0; n < k; n++ {
			i := lo + rng.Intn(hi-lo)
			if seen[i] {
				continue
			}
			seen[i] = true
			ratings = append(ratings, dataset.Rating{User: u, Item: i, Score: float64(3 + rng.Intn(3))})
		}
	}
	d, err := dataset.New(nu, ni, ratings)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func trainedModel(t testing.TB, d *dataset.Dataset, k int) *Model {
	t.Helper()
	// The paper's default α = 50/K is tuned for corpora with hundreds of
	// tokens per user; on these tiny test corpora it over-smooths θ, so we
	// use a small explicit α.
	m, err := Train(d, Config{NumTopics: k, Alpha: 0.5, Beta: 0.1, Iterations: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainValidation(t *testing.T) {
	d := genreCorpus(t, 10, 10, 1)
	if _, err := Train(d, Config{NumTopics: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestDistributionsAreSimplex(t *testing.T) {
	d := genreCorpus(t, 20, 12, 2)
	m := trainedModel(t, d, 3)
	for u := 0; u < m.NumUsers(); u++ {
		sum := 0.0
		for _, p := range m.Theta(u) {
			if p < 0 {
				t.Fatalf("negative θ[%d]", u)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("θ[%d] sums to %v", u, sum)
		}
	}
	for z := 0; z < m.NumTopics(); z++ {
		sum := 0.0
		for _, p := range m.Phi(z) {
			if p < 0 {
				t.Fatalf("negative φ[%d]", z)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("φ[%d] sums to %v", z, sum)
		}
	}
}

func TestTopicsSeparateGenres(t *testing.T) {
	// The Table 1 behaviour: each topic's top items come from one genre.
	d := genreCorpus(t, 40, 20, 3)
	m := trainedModel(t, d, 2)
	half := 10
	for z := 0; z < 2; z++ {
		top := m.TopItems(z, 5)
		if len(top) != 5 {
			t.Fatalf("TopItems returned %d", len(top))
		}
		// Count which side of the catalog the top items come from.
		left := 0
		for _, ti := range top {
			if ti.Item < half {
				left++
			}
		}
		if left != 0 && left != 5 {
			t.Fatalf("topic %d mixes genres: %d/5 from left half", z, left)
		}
	}
	// The two topics must cover different genres.
	t0Left := m.TopItems(0, 5)[0].Item < half
	t1Left := m.TopItems(1, 5)[0].Item < half
	if t0Left == t1Left {
		t.Fatal("both topics captured the same genre")
	}
}

func TestThetaReflectsMembership(t *testing.T) {
	d := genreCorpus(t, 40, 20, 4)
	m := trainedModel(t, d, 2)
	// Identify which topic owns the left genre via φ mass.
	leftMass0 := 0.0
	for i := 0; i < 10; i++ {
		leftMass0 += m.Phi(0)[i]
	}
	leftTopic := 0
	if leftMass0 < 0.5 {
		leftTopic = 1
	}
	// Left-genre users must put most θ mass on the left topic.
	for u := 0; u < 20; u++ {
		if m.Theta(u)[leftTopic] < 0.6 {
			t.Fatalf("left user %d has θ_left = %v", u, m.Theta(u)[leftTopic])
		}
	}
	for u := 20; u < 40; u++ {
		if m.Theta(u)[leftTopic] > 0.4 {
			t.Fatalf("right user %d has θ_left = %v", u, m.Theta(u)[leftTopic])
		}
	}
}

func TestScoreMatchesThetaPhi(t *testing.T) {
	d := genreCorpus(t, 16, 10, 5)
	m := trainedModel(t, d, 3)
	for u := 0; u < 4; u++ {
		for i := 0; i < m.NumItems(); i++ {
			want := 0.0
			for z := 0; z < m.NumTopics(); z++ {
				want += m.Theta(u)[z] * m.Phi(z)[i]
			}
			if math.Abs(m.Score(u, i)-want) > 1e-12 {
				t.Fatalf("Score(%d,%d) = %v, want %v", u, i, m.Score(u, i), want)
			}
		}
	}
}

func TestScoreAll(t *testing.T) {
	d := genreCorpus(t, 16, 10, 6)
	m := trainedModel(t, d, 2)
	out := m.ScoreAll(3, nil)
	if len(out) != m.NumItems() {
		t.Fatalf("ScoreAll length %d", len(out))
	}
	for i, s := range out {
		if math.Abs(s-m.Score(3, i)) > 1e-12 {
			t.Fatalf("ScoreAll[%d] = %v vs Score %v", i, s, m.Score(3, i))
		}
	}
	// Reuse path.
	out2 := m.ScoreAll(4, out)
	if &out2[0] != &out[0] {
		t.Fatal("ScoreAll did not reuse the buffer")
	}
}

func TestScorePreferInGenre(t *testing.T) {
	d := genreCorpus(t, 40, 20, 7)
	m := trainedModel(t, d, 2)
	// A left-genre user must on average score unseen left items above
	// right items.
	u := 0
	rated := d.UserItemSet(u)
	var left, right float64
	var nl, nr int
	for i := 0; i < 20; i++ {
		if _, ok := rated[i]; ok {
			continue
		}
		if i < 10 {
			left += m.Score(u, i)
			nl++
		} else {
			right += m.Score(u, i)
			nr++
		}
	}
	if nl == 0 || nr == 0 {
		t.Skip("degenerate corpus draw")
	}
	if left/float64(nl) <= right/float64(nr) {
		t.Fatalf("in-genre mean score %v not above out-genre %v", left/float64(nl), right/float64(nr))
	}
}

func TestUserEntropyRange(t *testing.T) {
	d := genreCorpus(t, 30, 16, 8)
	k := 4
	m := trainedModel(t, d, k)
	maxE := math.Log(float64(k))
	for u := 0; u < m.NumUsers(); u++ {
		e := m.UserEntropy(u)
		if e < 0 || e > maxE+1e-9 {
			t.Fatalf("entropy %v out of [0, %v]", e, maxE)
		}
	}
}

func TestSpecificUserHasLowerEntropy(t *testing.T) {
	// A user spread over both genres must have higher topic entropy than a
	// single-genre user (the §4.2 intuition).
	rng := rand.New(rand.NewSource(9))
	var ratings []dataset.Rating
	// 20 single-genre users on each side.
	for u := 0; u < 20; u++ {
		for _, i := range rng.Perm(10)[:5] {
			ratings = append(ratings, dataset.Rating{User: u, Item: i, Score: 5})
		}
	}
	for u := 20; u < 40; u++ {
		for _, i := range rng.Perm(10)[:5] {
			ratings = append(ratings, dataset.Rating{User: u, Item: 10 + i, Score: 5})
		}
	}
	// One generalist rating both genres heavily.
	for _, i := range rng.Perm(10)[:5] {
		ratings = append(ratings, dataset.Rating{User: 40, Item: i, Score: 5})
	}
	for _, i := range rng.Perm(10)[:5] {
		ratings = append(ratings, dataset.Rating{User: 40, Item: 10 + i, Score: 5})
	}
	d, err := dataset.New(41, 20, ratings)
	if err != nil {
		t.Fatal(err)
	}
	m := trainedModel(t, d, 2)
	gen := m.UserEntropy(40)
	for u := 0; u < 40; u++ {
		if m.UserEntropy(u) >= gen {
			t.Fatalf("specific user %d entropy %v >= generalist %v", u, m.UserEntropy(u), gen)
		}
	}
}

func TestTrainingImprovesLikelihood(t *testing.T) {
	d := genreCorpus(t, 30, 20, 10)
	cfg := Config{NumTopics: 2, Iterations: 60, Seed: 11}
	trained, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	random, err := RandomModel(d.NumUsers(), d.NumItems(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if trained.LogLikelihood(d) <= random.LogLikelihood(d) {
		t.Fatalf("training did not improve likelihood: %v vs %v",
			trained.LogLikelihood(d), random.LogLikelihood(d))
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	d := genreCorpus(t, 20, 12, 12)
	cfg := Config{NumTopics: 2, Iterations: 20, Seed: 99}
	m1, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < d.NumUsers(); u++ {
		for z := 0; z < 2; z++ {
			if m1.Theta(u)[z] != m2.Theta(u)[z] {
				t.Fatal("same seed produced different models")
			}
		}
	}
}

func TestTopItemsOrdering(t *testing.T) {
	d := genreCorpus(t, 20, 12, 13)
	m := trainedModel(t, d, 2)
	top := m.TopItems(0, 12)
	for k := 1; k < len(top); k++ {
		if top[k].Prob > top[k-1].Prob {
			t.Fatal("TopItems not descending")
		}
	}
	if over := m.TopItems(0, 100); len(over) != 12 {
		t.Fatalf("TopItems clamped to %d", len(over))
	}
}

// BenchmarkLDATrain times Train on the movielens world at K = 20 (the
// AC2 configuration), 10 sweeps.
func BenchmarkLDATrain(b *testing.B) {
	world, err := worlds.Generate("movielens", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{NumTopics: 20, Iterations: 10, Seed: 1}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := Train(world.Data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
