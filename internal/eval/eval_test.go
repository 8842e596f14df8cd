package eval

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"longtailrec/internal/core"
	"longtailrec/internal/dataset"
	"longtailrec/internal/synth"
)

// errScoring is a sentinel for error-propagation tests.
var errScoring = errors.New("synthetic scoring failure")

// testWorld generates a small synthetic corpus for evaluation tests.
func testWorld(t testing.TB, seed int64) *synth.World {
	t.Helper()
	w, err := synth.Generate(synth.Config{
		NumUsers:           150,
		NumItems:           260,
		NumGenres:          4,
		MeanRatingsPerUser: 22,
		MinRatingsPerUser:  6,
		Seed:               seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// oracleRecommender scores every held-out item of each user maximally —
// the recall upper bound (up to ties when a user has several held-out
// items and one of them is drawn as a negative).
func oracleRecommender(t testing.TB, d *dataset.Dataset, test []dataset.Rating) core.Recommender {
	t.Helper()
	favorites := make(map[int]map[int]struct{})
	for _, r := range test {
		if favorites[r.User] == nil {
			favorites[r.User] = make(map[int]struct{})
		}
		favorites[r.User][r.Item] = struct{}{}
	}
	g := d.Graph()
	rec, err := core.NewFuncRecommender("Oracle", g, func(u int) ([]float64, error) {
		out := make([]float64, d.NumItems())
		for item := range favorites[u] {
			out[item] = 1
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// constantRecommender scores all items identically (worst case: rank decided
// by tie-breaking).
func constantRecommender(t testing.TB, d *dataset.Dataset) core.Recommender {
	t.Helper()
	rec, err := core.NewFuncRecommender("Const", d.Graph(), func(u int) ([]float64, error) {
		return make([]float64, d.NumItems()), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// popularityRecommender mimics the head-pushing baselines.
func popularityRecommender(t testing.TB, d *dataset.Dataset) core.Recommender {
	t.Helper()
	pop := d.ItemPopularity()
	rec, err := core.NewFuncRecommender("Pop", d.Graph(), func(u int) ([]float64, error) {
		out := make([]float64, len(pop))
		for i, p := range pop {
			out[i] = float64(p)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// antiPopularityRecommender pushes the tail.
func antiPopularityRecommender(t testing.TB, d *dataset.Dataset) core.Recommender {
	t.Helper()
	pop := d.ItemPopularity()
	rec, err := core.NewFuncRecommender("AntiPop", d.Graph(), func(u int) ([]float64, error) {
		out := make([]float64, len(pop))
		for i, p := range pop {
			if p == 0 {
				out[i] = math.Inf(-1) // never-rated items unscorable
				continue
			}
			out[i] = -float64(p)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// randomRecommender scores items randomly but deterministically per user.
func randomRecommender(t testing.TB, d *dataset.Dataset, seed int64) core.Recommender {
	t.Helper()
	rec, err := core.NewFuncRecommender("Rand", d.Graph(), func(u int) ([]float64, error) {
		rng := rand.New(rand.NewSource(seed + int64(u)))
		out := make([]float64, d.NumItems())
		for i := range out {
			out[i] = rng.Float64()
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func splitWorld(t testing.TB, w *synth.World, numTest int) *dataset.HeldOutSplit {
	t.Helper()
	split, err := w.Data.SplitLongTailTest(rand.New(rand.NewSource(3)), numTest, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return split
}

func TestRecallValidation(t *testing.T) {
	w := testWorld(t, 1)
	split := splitWorld(t, w, 20)
	if _, err := Recall(nil, split.Train, split.Test, RecallOptions{}); err == nil {
		t.Fatal("no recommenders accepted")
	}
	rec := constantRecommender(t, split.Train)
	if _, err := Recall([]core.Recommender{rec}, split.Train, nil, RecallOptions{}); err == nil {
		t.Fatal("empty test set accepted")
	}
	if _, err := Recall([]core.Recommender{rec}, split.Train, split.Test, RecallOptions{NumNegatives: 10000}); err == nil {
		t.Fatal("too many negatives accepted")
	}
}

func TestRecallOracleIsPerfect(t *testing.T) {
	w := testWorld(t, 2)
	split := splitWorld(t, w, 25)
	oracle := oracleRecommender(t, split.Train, split.Test)
	res, err := Recall([]core.Recommender{oracle}, split.Train, split.Test,
		RecallOptions{NumNegatives: 100, MaxN: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The oracle gives held-out items score 1 vs 0 elsewhere, so rank 1
	// except when a user's other held-out item is sampled as a negative
	// and wins the tie. Recall@5 absorbs those ties.
	if res[0].Recall[0] < 0.75 {
		t.Fatalf("oracle recall@1 = %v", res[0].Recall[0])
	}
	if res[0].Recall[4] < 0.95 {
		t.Fatalf("oracle recall@5 = %v", res[0].Recall[4])
	}
	if res[0].Cases != 25 {
		t.Fatalf("cases %d", res[0].Cases)
	}
}

func TestRecallCurveMonotoneAndBounded(t *testing.T) {
	w := testWorld(t, 3)
	split := splitWorld(t, w, 25)
	recs := []core.Recommender{
		popularityRecommender(t, split.Train),
		randomRecommender(t, split.Train, 7),
		constantRecommender(t, split.Train),
	}
	res, err := Recall(recs, split.Train, split.Test, RecallOptions{NumNegatives: 120, MaxN: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		prev := 0.0
		for n, v := range r.Recall {
			if v < prev || v < 0 || v > 1 {
				t.Fatalf("%s recall@%d = %v (prev %v)", r.Name, n+1, v, prev)
			}
			prev = v
		}
	}
}

func TestRecallRandomNearChance(t *testing.T) {
	w := testWorld(t, 4)
	split := splitWorld(t, w, 40)
	rec := randomRecommender(t, split.Train, 11)
	res, err := Recall([]core.Recommender{rec}, split.Train, split.Test,
		RecallOptions{NumNegatives: 100, MaxN: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Chance level at N=50 with 101 candidates is ~0.495; allow wide noise.
	got := res[0].Recall[49]
	if got < 0.2 || got > 0.8 {
		t.Fatalf("random recall@50 = %v, expected near 0.5", got)
	}
}

func TestRecallSameCandidatesAcrossAlgorithms(t *testing.T) {
	// Two identical recommenders must produce identical curves (shared
	// negative sampling).
	w := testWorld(t, 5)
	split := splitWorld(t, w, 20)
	a := popularityRecommender(t, split.Train)
	b := popularityRecommender(t, split.Train)
	res, err := Recall([]core.Recommender{a, b}, split.Train, split.Test,
		RecallOptions{NumNegatives: 80, MaxN: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for n := range res[0].Recall {
		if res[0].Recall[n] != res[1].Recall[n] {
			t.Fatalf("identical algorithms diverge at N=%d", n+1)
		}
	}
}

func TestRecallParallelMatchesSerial(t *testing.T) {
	w := testWorld(t, 14)
	split := splitWorld(t, w, 30)
	recs := []core.Recommender{popularityRecommender(t, split.Train), randomRecommender(t, split.Train, 21)}
	serial, err := Recall(recs, split.Train, split.Test,
		RecallOptions{NumNegatives: 100, MaxN: 25, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Recall(recs, split.Train, split.Test,
		RecallOptions{NumNegatives: 100, MaxN: 25, Seed: 6, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for a := range serial {
		for n := range serial[a].Recall {
			if serial[a].Recall[n] != parallel[a].Recall[n] {
				t.Fatalf("%s diverges at N=%d: %v vs %v",
					serial[a].Name, n+1, serial[a].Recall[n], parallel[a].Recall[n])
			}
		}
	}
}

func TestRecallParallelPropagatesErrors(t *testing.T) {
	w := testWorld(t, 15)
	split := splitWorld(t, w, 10)
	bad, err := core.NewFuncRecommender("Bad", split.Train.Graph(), func(u int) ([]float64, error) {
		return nil, errScoring
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recall([]core.Recommender{bad}, split.Train, split.Test,
		RecallOptions{NumNegatives: 50, MaxN: 10, Parallelism: 4}); err == nil {
		t.Fatal("scoring error swallowed")
	}
}

func TestListsMetrics(t *testing.T) {
	w := testWorld(t, 6)
	d := w.Data
	users, err := d.SampleUsers(rand.New(rand.NewSource(5)), 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	recs := []core.Recommender{
		popularityRecommender(t, d),
		antiPopularityRecommender(t, d),
		randomRecommender(t, d, 13),
	}
	ms, err := Lists(recs, d, users, ListOptions{ListSize: 10, Ontology: w.Ontology})
	if err != nil {
		t.Fatal(err)
	}
	popM, tailM, randM := ms[0], ms[1], ms[2]
	if popM.MeanPopularity <= tailM.MeanPopularity {
		t.Fatalf("popularity recommender mean pop %v not above anti-pop %v",
			popM.MeanPopularity, tailM.MeanPopularity)
	}
	// Both global rankers push near-identical lists to everyone; the
	// personalized random recommender must beat them on diversity.
	if randM.Diversity <= popM.Diversity || randM.Diversity <= tailM.Diversity {
		t.Fatalf("diversity: random %v should beat pop %v and anti-pop %v",
			randM.Diversity, popM.Diversity, tailM.Diversity)
	}
	for _, m := range ms {
		if m.Diversity < 0 || m.Diversity > 1 {
			t.Fatalf("%s diversity %v", m.Name, m.Diversity)
		}
		if m.Similarity < 0 || m.Similarity > 1 {
			t.Fatalf("%s similarity %v", m.Name, m.Similarity)
		}
		if m.SecondsPerUser < 0 {
			t.Fatalf("%s negative time", m.Name)
		}
		if m.UsersServed != len(users) {
			t.Fatalf("%s served %d of %d", m.Name, m.UsersServed, len(users))
		}
		if len(m.PopularityAt) != 10 {
			t.Fatalf("%s per-position length %d", m.Name, len(m.PopularityAt))
		}
	}
}

func TestListsParallelMatchesSequential(t *testing.T) {
	w := testWorld(t, 9)
	d := w.Data
	users, err := d.SampleUsers(rand.New(rand.NewSource(6)), 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	recs := []core.Recommender{
		core.NewAbsorbingTime(d.Graph(), core.WalkOptions{Iterations: 6}),
		popularityRecommender(t, d),
	}
	seq, err := Lists(recs, d, users, ListOptions{ListSize: 8, Ontology: w.Ontology})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Lists(recs, d, users, ListOptions{ListSize: 8, Ontology: w.Ontology, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := range seq {
		s, p := seq[k], par[k]
		if s.MeanPopularity != p.MeanPopularity || s.Diversity != p.Diversity ||
			s.Similarity != p.Similarity || s.UsersServed != p.UsersServed {
			t.Fatalf("%s: parallel metrics diverge: %+v vs %+v", s.Name, p, s)
		}
		if p.SecondsPerUser < 0 {
			t.Fatalf("%s: negative batch time", p.Name)
		}
	}
}

func TestListsValidation(t *testing.T) {
	w := testWorld(t, 7)
	rec := constantRecommender(t, w.Data)
	if _, err := Lists(nil, w.Data, []int{0}, ListOptions{}); err == nil {
		t.Fatal("no recommenders accepted")
	}
	if _, err := Lists([]core.Recommender{rec}, w.Data, nil, ListOptions{}); err == nil {
		t.Fatal("empty panel accepted")
	}
}

func TestUserStudySeparatesHeadAndTail(t *testing.T) {
	w := testWorld(t, 8)
	d := w.Data
	users, err := d.SampleUsers(rand.New(rand.NewSource(9)), 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	recs := []core.Recommender{
		popularityRecommender(t, d),
		antiPopularityRecommender(t, d),
	}
	res, err := UserStudy(recs, w, d, users, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pop, tail := res[0], res[1]
	if pop.Novelty >= tail.Novelty {
		t.Fatalf("novelty: popular pusher %v should be below tail pusher %v", pop.Novelty, tail.Novelty)
	}
	for _, r := range res {
		if r.Preference < 1 || r.Preference > 5 {
			t.Fatalf("%s preference %v", r.Name, r.Preference)
		}
		if r.Novelty < 0 || r.Novelty > 1 {
			t.Fatalf("%s novelty %v", r.Name, r.Novelty)
		}
		if r.Serendipity < 1 || r.Serendipity > 5 {
			t.Fatalf("%s serendipity %v", r.Name, r.Serendipity)
		}
		if r.Score < 1 || r.Score > 5 {
			t.Fatalf("%s score %v", r.Name, r.Score)
		}
	}
}

func TestUserStudyValidation(t *testing.T) {
	w := testWorld(t, 10)
	rec := constantRecommender(t, w.Data)
	if _, err := UserStudy(nil, w, w.Data, []int{0}, StudyOptions{}); err == nil {
		t.Fatal("no recommenders accepted")
	}
	if _, err := UserStudy([]core.Recommender{rec}, w, w.Data, nil, StudyOptions{}); err == nil {
		t.Fatal("no evaluators accepted")
	}
}

func TestPopularityPercentiles(t *testing.T) {
	pct := popularityPercentiles([]int{5, 0, 5, 2})
	// Item 1 (pop 0): 0 items below → 0. Item 3 (pop 2): 1 below → 0.25.
	// Items 0, 2 (pop 5): 2 below → 0.5.
	want := []float64{0.5, 0, 0.5, 0.25}
	for i := range want {
		if math.Abs(pct[i]-want[i]) > 1e-12 {
			t.Fatalf("percentiles %v, want %v", pct, want)
		}
	}
}

func TestClamp(t *testing.T) {
	if clamp(0, 1, 5) != 1 || clamp(9, 1, 5) != 5 || clamp(3, 1, 5) != 3 {
		t.Fatal("clamp broken")
	}
}

// TestListsQueryTemplate: the frozen Query option set scopes every
// panel list — here a candidate slate restricts every user's list to
// the slate, sequentially and batched alike.
func TestListsQueryTemplate(t *testing.T) {
	w := testWorld(t, 17)
	d := w.Data
	users, err := d.SampleUsers(rand.New(rand.NewSource(8)), 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	slate := []int{0, 1, 2, 3, 4, 5, 6, 7}
	inSlate := make(map[int]bool, len(slate))
	for _, i := range slate {
		inSlate[i] = true
	}
	at := core.NewAbsorbingTime(d.Graph(), core.WalkOptions{Iterations: 6})
	opts := ListOptions{ListSize: 4, Query: core.Request{CandidateItems: slate}}
	for _, par := range []int{0, 4} {
		opts.Parallelism = par
		ms, err := Lists([]core.Recommender{at}, d, users, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Diversity over a panel restricted to an 8-item slate can cover
		// at most the slate; the popularity figures likewise come only
		// from slate members. Cross-check via per-user lists.
		if ms[0].UsersServed == 0 {
			t.Fatalf("parallelism %d: nobody served", par)
		}
	}
	// Direct check that a restricted request only serves the slate.
	resp, err := at.Recommend(core.Request{User: users[0], K: 4, CandidateItems: slate}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range resp.Items {
		if !inSlate[it.Item] {
			t.Fatalf("off-slate item %d", it.Item)
		}
	}
}
