package cf

import (
	"math"
	"testing"

	"longtailrec/internal/dataset"
)

func smallDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	// Users 0,1 agree on items 0-2; user 2 disagrees; user 3 rates a
	// disjoint set.
	d, err := dataset.New(4, 6, []dataset.Rating{
		{User: 0, Item: 0, Score: 5}, {User: 0, Item: 1, Score: 4}, {User: 0, Item: 2, Score: 1},
		{User: 1, Item: 0, Score: 5}, {User: 1, Item: 1, Score: 5}, {User: 1, Item: 2, Score: 1}, {User: 1, Item: 3, Score: 5},
		{User: 2, Item: 0, Score: 1}, {User: 2, Item: 1, Score: 1}, {User: 2, Item: 2, Score: 5}, {User: 2, Item: 4, Score: 5},
		{User: 3, Item: 5, Score: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestIdenticalItemsPerfectSimilarity(t *testing.T) {
	d, err := dataset.New(3, 2, []dataset.Rating{
		{User: 0, Item: 0, Score: 2}, {User: 1, Item: 0, Score: 4},
		{User: 0, Item: 1, Score: 2}, {User: 1, Item: 1, Score: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := NewItemKNN(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	sims, err := knn.SimilarItems(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != 1 || sims[0].Item != 1 || math.Abs(sims[0].Similarity-1) > 1e-12 {
		t.Fatalf("identical items similarity %+v", sims)
	}
}

func TestItemKNNScores(t *testing.T) {
	d := smallDataset(t)
	knn, err := NewItemKNN(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Item-based kNN score for user 0: each rated item adds its score
	// times the similarity to every neighbor it keeps.
	scores := make([]float64, d.NumItems())
	for _, r := range d.UserRatings(0) {
		sims, err := knn.SimilarItems(r.Item, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sims {
			scores[s.Item] += r.Score * s.Similarity
		}
	}
	// Item 3 is rated by user 1 who also rated 0,1,2 like user 0; item 5
	// is only rated by the disjoint user 3 and must score 0.
	if scores[3] <= 0 {
		t.Fatalf("item 3 score %v", scores[3])
	}
	if scores[5] != 0 {
		t.Fatalf("item 5 score %v, want 0", scores[5])
	}
}

func TestItemKNNValidation(t *testing.T) {
	d := smallDataset(t)
	if _, err := NewItemKNN(d, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestMostPopular(t *testing.T) {
	d := smallDataset(t)
	mp := NewMostPopular(d)
	s0 := mp.ScoreAll(0, nil)
	s1 := mp.ScoreAll(1, nil)
	for i := range s0 {
		if s0[i] != s1[i] {
			t.Fatal("MostPopular is user-dependent")
		}
	}
	// Item 0 rated 3 times, item 5 once, item 3 once.
	if s0[0] != 3 || s0[5] != 1 {
		t.Fatalf("popularity scores %v", s0)
	}
}

func TestScoreAllBufferReuse(t *testing.T) {
	mp := NewMostPopular(smallDataset(t))
	buf := mp.ScoreAll(0, nil)
	buf2 := mp.ScoreAll(1, buf)
	if &buf2[0] != &buf[0] {
		t.Fatal("buffer not reused")
	}
}

func TestSimilarItems(t *testing.T) {
	d := smallDataset(t)
	knn, err := NewItemKNN(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Items 0 and 1 are co-rated by users 0, 1, 2 with agreeing scores.
	sims, err := knn.SimilarItems(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) == 0 {
		t.Fatal("no neighbors")
	}
	for i, s := range sims {
		if s.Item == 0 {
			t.Fatal("self neighbor")
		}
		if s.Similarity <= 0 || s.Similarity > 1+1e-12 {
			t.Fatalf("similarity %v", s.Similarity)
		}
		if i > 0 && s.Similarity > sims[i-1].Similarity {
			t.Fatal("not sorted")
		}
	}
	if sims[0].Item != 1 {
		t.Fatalf("closest to item 0 is %d, want 1", sims[0].Item)
	}
	// Item 5 has a single rater who rated nothing else: no neighbors.
	lonely, err := knn.SimilarItems(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(lonely) != 0 {
		t.Fatalf("isolated item has neighbors %+v", lonely)
	}
}

func TestSimilarItemsValidation(t *testing.T) {
	d := smallDataset(t)
	knn, err := NewItemKNN(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := knn.SimilarItems(-1, 3); err == nil {
		t.Fatal("negative item accepted")
	}
	if _, err := knn.SimilarItems(99, 3); err == nil {
		t.Fatal("out-of-range item accepted")
	}
	if _, err := knn.SimilarItems(0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}
