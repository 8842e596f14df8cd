package longtail

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"longtailrec/internal/eval"
	"longtailrec/internal/lda"
	"longtailrec/internal/persist"
	"longtailrec/internal/synth"
)

// TestEndToEndPipeline exercises the full production path a downstream
// user would run: generate (or load) a corpus, k-core it, hold out a
// long-tail test set, train the system, evaluate recall and list metrics,
// and produce final recommendations — asserting the library's headline
// guarantees at every stage.
func TestEndToEndPipeline(t *testing.T) {
	world, err := synth.Generate(synth.Config{
		NumUsers:           300,
		NumItems:           420,
		NumGenres:          6,
		MeanRatingsPerUser: 25,
		MinRatingsPerUser:  8,
		Seed:               99,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := world.Data.KCore(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	split, err := data.SplitLongTailTest(rng, 40, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 6, Alpha: 0.5, Iterations: 30, Seed: 2}
	cfg.SVDRank = 10
	sys, err := NewSystem(split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := sys.PaperSuite()
	if err != nil {
		t.Fatal(err)
	}

	// Recall: the graph family must beat the factor models at N=50.
	recall, err := eval.Recall(suite, split.Train, split.Test,
		eval.RecallOptions{NumNegatives: 150, MaxN: 50, Seed: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	at50 := map[string]float64{}
	for _, r := range recall {
		at50[r.Name] = r.Recall[49]
	}
	graphBest := at50["AC2"]
	for _, n := range []string{"AC1", "AT", "HT"} {
		if at50[n] > graphBest {
			graphBest = at50[n]
		}
	}
	if graphBest <= at50["LDA"] || graphBest <= at50["PureSVD"] {
		t.Fatalf("graph family R@50 %.3f not above LDA %.3f / PureSVD %.3f",
			graphBest, at50["LDA"], at50["PureSVD"])
	}

	// List metrics: popularity gap in the paper's direction.
	panel, err := split.Train.SampleUsers(rng, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	lists, err := eval.Lists(suite, split.Train, panel, eval.ListOptions{
		ListSize: 10, Ontology: world.Ontology,
	})
	if err != nil {
		t.Fatal(err)
	}
	meanPop := map[string]float64{}
	for _, m := range lists {
		meanPop[m.Name] = m.MeanPopularity
	}
	if meanPop["AC2"] >= meanPop["PureSVD"] {
		t.Fatalf("AC2 recommends more popular items (%.1f) than PureSVD (%.1f)",
			meanPop["AC2"], meanPop["PureSVD"])
	}

	// Sales diversity: the LDA baseline must concentrate exposure harder
	// than the absorbing-walk family.
	sales, err := eval.MeasureSalesDiversity([]Recommender{mustAlgorithm(t, sys, "AC2"), mustAlgorithm(t, sys, "LDA")}, split.Train, panel, 10)
	if err != nil {
		t.Fatal(err)
	}
	// With a 30-user panel over a 400+-item catalog, Gini is dominated by
	// never-recommended items for every algorithm, so coverage and tail
	// share are the discriminating aggregates at this scale.
	if sales[0].Coverage <= sales[1].Coverage {
		t.Fatalf("AC2 coverage %.3f not above LDA %.3f", sales[0].Coverage, sales[1].Coverage)
	}
	if sales[0].TailShare <= sales[1].TailShare {
		t.Fatalf("AC2 tail share %.3f not above LDA %.3f", sales[0].TailShare, sales[1].TailShare)
	}
	for _, sd := range sales {
		if sd.Gini < 0 || sd.Gini > 1 {
			t.Fatalf("%s Gini %v out of range", sd.Name, sd.Gini)
		}
	}
}

// TestPersistRoundTripPreservesRecommendations pins the offline→online
// contract: a dataset written through internal/persist and reloaded must
// yield byte-identical recommendations from the deterministic walk
// algorithms, and an LDA model saved after training must score exactly
// like the in-memory one.
func TestPersistRoundTripPreservesRecommendations(t *testing.T) {
	world, err := synth.Generate(synth.Config{
		NumUsers:           120,
		NumItems:           160,
		NumGenres:          4,
		MeanRatingsPerUser: 14,
		MinRatingsPerUser:  5,
		Seed:               31,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := persist.SaveDataset(&buf, world.Data); err != nil {
		t.Fatal(err)
	}
	reloaded, err := persist.LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 4, Iterations: 10, Seed: 8}
	sysA, err := NewSystem(world.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := NewSystem(reloaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"HT", "AT", "AC1"} {
		recA, err := sysA.Algorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		recB, err := sysB.Algorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 20; u++ {
			a, errA := RecommendItems(recA, u, 5)
			b, errB := RecommendItems(recB, u, 5)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s user %d: error divergence %v vs %v", name, u, errA, errB)
			}
			if len(a) != len(b) {
				t.Fatalf("%s user %d: %d vs %d recommendations", name, u, len(a), len(b))
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("%s user %d slot %d: %+v vs %+v", name, u, k, a[k], b[k])
				}
			}
		}
	}
	// Model persistence: the trained LDA scores identically after reload.
	model, err := sysA.LDAModel()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := persist.SaveLDA(&buf, model); err != nil {
		t.Fatal(err)
	}
	loaded, err := persist.LoadLDA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		for i := 0; i < 20; i++ {
			if model.Score(u, i) != loaded.Score(u, i) {
				t.Fatalf("LDA score(%d,%d) changed after reload", u, i)
			}
		}
	}
}

// TestSystemConcurrentUse hammers one System from many goroutines — the
// documented guarantee that a System is safe for concurrent reads after
// construction (lazy model builds are mutex-guarded).
func TestSystemConcurrentUse(t *testing.T) {
	world, err := synth.Generate(synth.Config{
		NumUsers:           150,
		NumItems:           200,
		NumGenres:          4,
		MeanRatingsPerUser: 15,
		MinRatingsPerUser:  5,
		Seed:               5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LDA = lda.Config{NumTopics: 4, Iterations: 15, Seed: 6}
	cfg.SVDRank = 6
	sys, err := NewSystem(world.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			names := AlgorithmNames()
			for i := 0; i < 6; i++ {
				name := names[(worker+i)%len(names)]
				rec, err := sys.Algorithm(name)
				if err != nil {
					errCh <- err
					return
				}
				if _, err := RecommendItems(rec, (worker*7+i)%world.Data.NumUsers(), 5); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
