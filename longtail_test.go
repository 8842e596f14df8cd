package longtail

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"longtailrec/internal/lda"
	"longtailrec/internal/synth"
)

// smallSystem builds a System over a compact synthetic world with fast
// model settings.
func smallSystem(t testing.TB, seed int64) (*System, *World) {
	t.Helper()
	w, err := synth.Generate(synth.Config{
		NumUsers:           120,
		NumItems:           200,
		NumGenres:          4,
		MeanRatingsPerUser: 18,
		MinRatingsPerUser:  5,
		Seed:               seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 4, Alpha: 0.5, Iterations: 25, Seed: seed}
	cfg.SVDRank = 8
	cfg.Seed = seed
	sys, err := NewSystem(w.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, w
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, DefaultConfig()); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestAllAlgorithmsProduceRecommendations(t *testing.T) {
	sys, _ := smallSystem(t, 1)
	users, err := sys.Data().SampleUsers(rand.New(rand.NewSource(1)), 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range AlgorithmNames() {
		rec, err := sys.Algorithm(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Name() != name {
			t.Fatalf("algorithm %q reports name %q", name, rec.Name())
		}
		for _, u := range users {
			recs, err := RecommendItems(rec, u, 5)
			if err != nil {
				t.Fatalf("%s user %d: %v", name, u, err)
			}
			if len(recs) == 0 {
				t.Fatalf("%s produced no recommendations for user %d", name, u)
			}
			rated := sys.Data().UserItemSet(u)
			for _, r := range recs {
				if _, bad := rated[r.Item]; bad {
					t.Fatalf("%s recommended rated item %d", name, r.Item)
				}
			}
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	sys, _ := smallSystem(t, 2)
	if _, err := sys.Algorithm("Nope"); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("err = %v", err)
	}
}

func TestRecommendersAreCached(t *testing.T) {
	sys, _ := smallSystem(t, 3)
	a, err := sys.AC1()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.AC1()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("AC1 rebuilt instead of cached")
	}
	if sys.HT() != sys.HT() {
		t.Fatal("HT rebuilt")
	}
}

func TestLDAModelShared(t *testing.T) {
	sys, _ := smallSystem(t, 4)
	m1, err := sys.LDAModel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AC2(); err != nil {
		t.Fatal(err)
	}
	m2, err := sys.LDAModel()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("LDA model retrained")
	}
}

func TestPaperSuite(t *testing.T) {
	sys, _ := smallSystem(t, 5)
	suite, err := sys.PaperSuite()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"AC2", "AC1", "AT", "HT", "DPPR", "PureSVD", "LDA"}
	if len(suite) != len(want) {
		t.Fatalf("suite size %d", len(suite))
	}
	for k, rec := range suite {
		if rec.Name() != want[k] {
			t.Fatalf("suite[%d] = %s, want %s", k, rec.Name(), want[k])
		}
	}
}

func TestWalkAlgorithmsPreferTail(t *testing.T) {
	// The library's headline property: HT/AT/AC recommend less popular
	// items than the popularity baseline on a skewed corpus.
	sys, _ := smallSystem(t, 6)
	d := sys.Data()
	pop := d.ItemPopularity()
	users, err := d.SampleUsers(rand.New(rand.NewSource(2)), 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	meanTopPop := func(rec Recommender) float64 {
		total, count := 0.0, 0
		for _, u := range users {
			recs, err := RecommendItems(rec, u, 10)
			if err != nil {
				t.Fatalf("%s: %v", rec.Name(), err)
			}
			for _, r := range recs {
				total += float64(pop[r.Item])
				count++
			}
		}
		if count == 0 {
			t.Fatalf("%s served nobody", rec.Name())
		}
		return total / float64(count)
	}
	popBase := meanTopPop(sys.MostPopular())
	for _, mk := range []func() (Recommender, error){
		func() (Recommender, error) { return sys.AT(), nil },
		func() (Recommender, error) { return sys.HT(), nil },
		sys.AC1,
	} {
		rec, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if got := meanTopPop(rec); got >= popBase {
			t.Fatalf("%s mean rec popularity %.2f not below MostPopular %.2f", rec.Name(), got, popBase)
		}
	}
}

func TestLoadHelpers(t *testing.T) {
	ld, err := LoadCSV(strings.NewReader("a,x,5\nb,x,4\nb,y,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ld.Data.NumUsers() != 2 || ld.Data.NumItems() != 2 {
		t.Fatalf("loaded %d/%d", ld.Data.NumUsers(), ld.Data.NumItems())
	}
	ml, err := LoadMovieLens(strings.NewReader("1::7::5::0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ml.Data.NumRatings() != 1 {
		t.Fatal("MovieLens load failed")
	}
	tsv, err := LoadTSV(strings.NewReader("1\t7\t5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tsv.Data.NumRatings() != 1 {
		t.Fatal("TSV load failed")
	}
	if _, err := LoadMovieLensFile("/nonexistent/path"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation is slow")
	}
	ml, err := GenerateMovieLensLike(9)
	if err != nil {
		t.Fatal(err)
	}
	db, err := GenerateDoubanLike(9)
	if err != nil {
		t.Fatal(err)
	}
	if ml.Data.Density() <= db.Data.Density() {
		t.Fatalf("MovieLens-like density %v should exceed Douban-like %v",
			ml.Data.Density(), db.Data.Density())
	}
}

func TestNewDatasetHelper(t *testing.T) {
	d, err := NewDataset(2, 2, []Rating{{User: 0, Item: 0, Score: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRatings() != 1 {
		t.Fatal("helper broken")
	}
	if _, err := NewDataset(0, 0, nil); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}

func TestFacadeBuilderAndPersistence(t *testing.T) {
	b := NewBuilder(KeepLast)
	events := []struct {
		u, i int
		s    float64
	}{
		{0, 0, 5}, {0, 1, 4}, {1, 0, 4}, {1, 2, 5}, {2, 1, 3}, {2, 2, 4},
		{0, 0, 3}, // re-rating, KeepLast wins
	}
	for _, e := range events {
		if err := b.Add(e.u, e.i, e.s); err != nil {
			t.Fatal(err)
		}
	}
	d, err := b.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Score(0, 0); got != 3 {
		t.Fatalf("KeepLast score %v", got)
	}

	path := filepath.Join(t.TempDir(), "corpus.ltrz")
	if err := SaveDatasetFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRatings() != d.NumRatings() || got.NumUsers() != d.NumUsers() {
		t.Fatal("file round trip changed the dataset")
	}
	var buf bytes.Buffer
	if err := SaveDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got2.NumRatings() != d.NumRatings() {
		t.Fatal("writer round trip changed the dataset")
	}
	if _, err := LoadDatasetFile(filepath.Join(t.TempDir(), "missing.ltrz")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSystemSimilarItems(t *testing.T) {
	sys, _ := smallSystem(t, 13)
	sims, err := sys.SimilarItems(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sims {
		if s.Item == 0 || s.Similarity <= 0 {
			t.Fatalf("bad neighbor %+v", s)
		}
	}
	if _, err := sys.SimilarItems(-1, 5); err == nil {
		t.Fatal("negative item accepted")
	}
	if _, err := sys.SimilarItems(0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestAlgorithmRegistryParity holds the registry invariant: every name
// AlgorithmNames lists resolves through Algorithm to a recommender that
// reports that very name, the list has no duplicates, and nothing
// outside the list resolves. Resolution and listing are derived from
// one table, so this test guards against the table itself rotting
// (e.g. a registered builder returning a misnamed recommender).
func TestAlgorithmRegistryParity(t *testing.T) {
	sys, _ := smallSystem(t, 21)
	names := AlgorithmNames()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			t.Fatalf("duplicate registry entry %q", name)
		}
		seen[name] = true
		rec, err := sys.Algorithm(name)
		if err != nil {
			t.Fatalf("listed algorithm %q does not resolve: %v", name, err)
		}
		if rec.Name() != name {
			t.Fatalf("algorithm %q resolves to recommender named %q", name, rec.Name())
		}
	}
	if !reflect.DeepEqual(sys.Algorithms(), names) {
		t.Fatal("System.Algorithms diverged from AlgorithmNames")
	}
	for _, bogus := range []string{"", "ht", "AC", "AT ", "PureSVD2"} {
		if _, err := sys.Algorithm(bogus); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Fatalf("unlisted name %q: err = %v, want ErrUnknownAlgorithm", bogus, err)
		}
	}
}

// TestSystemRecommendRequest exercises the System-level Request surface:
// metadata envelope, per-request options, fallback policy, context.
func TestSystemRecommendRequest(t *testing.T) {
	sys, _ := smallSystem(t, 22)
	resp, err := sys.Recommend(context.Background(), "AT", Request{User: 0, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Algo != "AT" || resp.Fallback || len(resp.Items) == 0 {
		t.Fatalf("resp = %+v", resp)
	}
	direct, err := RecommendItems(sys.AT(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, resp.Items) {
		t.Fatalf("System.Recommend diverged from the recommender it resolves:\n%+v\n%+v", direct, resp.Items)
	}

	// Options: excluding the whole result forces an empty list.
	excl := make([]int, len(resp.Items))
	for i, it := range resp.Items {
		excl[i] = it.Item
	}
	narrowed, err := sys.Recommend(context.Background(), "AT", Request{User: 0, K: len(excl), ExcludeItems: excl})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range narrowed.Items {
		for _, ex := range excl {
			if it.Item == ex {
				t.Fatalf("excluded item %d served", ex)
			}
		}
	}

	// Cancelled context aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Recommend(ctx, "AT", Request{User: 0, K: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// req.Ctx wins over the argument ctx.
	if _, err := sys.Recommend(context.Background(), "AT", Request{Ctx: ctx, User: 0, K: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("req.Ctx not honored: %v", err)
	}

	// Unknown algorithm surfaces the registry error.
	if _, err := sys.Recommend(context.Background(), "Nope", Request{User: 0, K: 5}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestSystemRecommendFallback: a grown (history-less) user degrades to
// the popularity list when the request allows it, with the option
// filters still applied.
func TestSystemRecommendFallback(t *testing.T) {
	sys, _ := smallSystem(t, 23)
	cfg := sys.cfg
	if cfg.AutoGrow {
		t.Fatal("test assumes closed universe default")
	}
	// Admit a brand-new user with no ratings via the graph directly.
	newUser := sys.Graph().AddUser()

	if _, err := sys.Recommend(context.Background(), "AT", Request{User: newUser, K: 4}); !errors.Is(err, ErrColdUser) {
		t.Fatalf("err = %v, want ErrColdUser without fallback", err)
	}
	resp, err := sys.Recommend(context.Background(), "AT", Request{User: newUser, K: 4, AllowFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Fallback || len(resp.Items) != 4 {
		t.Fatalf("fallback resp = %+v", resp)
	}
	// The fallback honors the option filters: exclude its top pick.
	top := resp.Items[0].Item
	filtered, err := sys.Recommend(context.Background(), "AT", Request{
		User: newUser, K: 4, AllowFallback: true, ExcludeItems: []int{top},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !filtered.Fallback {
		t.Fatalf("filtered fallback resp = %+v", filtered)
	}
	for _, it := range filtered.Items {
		if it.Item == top {
			t.Fatalf("fallback served excluded item %d", top)
		}
	}

	// Batch: fallback-allowed requests fill, plain cold entries stay zero.
	resps, err := sys.RecommendRequests(context.Background(), "AT", []Request{
		{User: 0, K: 3},
		{User: newUser, K: 3, AllowFallback: true},
		{User: newUser, K: 3},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Algo != "AT" || len(resps[0].Items) == 0 {
		t.Fatalf("warm batch entry %+v", resps[0])
	}
	if !resps[1].Fallback || len(resps[1].Items) != 3 {
		t.Fatalf("fallback batch entry %+v", resps[1])
	}
	if resps[2].Algo != "" || resps[2].Items != nil {
		t.Fatalf("cold batch entry %+v", resps[2])
	}

	// HT anchors the walk at the user's own node, not at S_q, and used to
	// answer a rating-less user "no items, no error", flag or no flag. It
	// is the same cold user: the same list AT's fallback serves.
	if _, err := sys.Recommend(context.Background(), "HT", Request{User: newUser, K: 4}); !errors.Is(err, ErrColdUser) {
		t.Fatalf("HT: err = %v, want ErrColdUser without fallback", err)
	}
	htResp, err := sys.Recommend(context.Background(), "HT", Request{User: newUser, K: 4, AllowFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if !htResp.Fallback || htResp.Algo != "HT" || !reflect.DeepEqual(htResp.Items, resp.Items) {
		t.Fatalf("HT fallback resp = %+v, want AT's popularity list %+v", htResp, resp.Items)
	}
	htResps, err := sys.RecommendRequests(context.Background(), "HT", []Request{
		{User: newUser, K: 3, AllowFallback: true},
		{User: newUser, K: 3},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !htResps[0].Fallback || len(htResps[0].Items) != 3 {
		t.Fatalf("HT fallback batch entry %+v", htResps[0])
	}
	if htResps[1].Algo != "" || htResps[1].Items != nil {
		t.Fatalf("HT cold batch entry %+v", htResps[1])
	}
}
