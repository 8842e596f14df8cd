package core

import (
	"math"
	"testing"

	"longtailrec/internal/entropy"
)

func TestSymmetricCostValidation(t *testing.T) {
	g := figure2Graph(t)
	ue := []float64{1, 1, 1, 1, 1}
	ie := []float64{1, 1, 1, 1, 1, 1}
	if _, err := NewSymmetricAbsorbingCost(g, "AC3", ue[:2], ie, CostOptions{}); err == nil {
		t.Fatal("short user entropies accepted")
	}
	if _, err := NewSymmetricAbsorbingCost(g, "AC3", ue, ie[:3], CostOptions{}); err == nil {
		t.Fatal("short item entropies accepted")
	}
	bad := append([]float64(nil), ie...)
	bad[0] = math.NaN()
	if _, err := NewSymmetricAbsorbingCost(g, "AC3", ue, bad, CostOptions{}); err == nil {
		t.Fatal("NaN item entropy accepted")
	}
	neg := append([]float64(nil), ue...)
	neg[2] = -1
	if _, err := NewSymmetricAbsorbingCost(g, "AC3", neg, ie, CostOptions{}); err == nil {
		t.Fatal("negative user entropy accepted")
	}
}

func TestSymmetricCostUniformMatchesAT(t *testing.T) {
	// With all entropies = 1 (above the floor), every step costs 1, so the
	// symmetric cost must equal the absorbing time.
	g := figure2Graph(t)
	ones5 := []float64{1, 1, 1, 1, 1}
	ones6 := []float64{1, 1, 1, 1, 1, 1}
	ac3, err := NewSymmetricAbsorbingCost(g, "AC3u", ones5, ones6,
		CostOptions{WalkOptions: WalkOptions{Iterations: convergedTau}})
	if err != nil {
		t.Fatal(err)
	}
	requireOracle(t, &ac3.walkRecommender, 4)
	at := NewAbsorbingTime(g, WalkOptions{Iterations: convergedTau})
	s3, err := ac3.ScoreItems(4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := at.ScoreItems(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s3 {
		if math.IsInf(s3[i], -1) != math.IsInf(st[i], -1) {
			t.Fatalf("reachability differs at %d", i)
		}
		if !math.IsInf(s3[i], -1) && math.Abs(s3[i]-st[i]) > 1e-9 {
			t.Fatalf("uniform AC3 %v != AT %v at item %d", s3[i], st[i], i)
		}
	}
}

func TestSymmetricCostPenalizesPopularHubs(t *testing.T) {
	// Raising only the popular item M1's entropy must increase costs of
	// walks that pass through it, lowering M1-adjacent candidates relative
	// to a run with uniform item costs.
	g := figure2Graph(t)
	d := figure2Dataset(t)
	ue := entropy.AllItemBased(d)
	uniform := make([]float64, 6)
	for i := range uniform {
		uniform[i] = 1
	}
	spiked := append([]float64(nil), uniform...)
	spiked[0] = 5 // M1 becomes an expensive hub
	base, err := NewSymmetricAbsorbingCost(g, "base", ue, uniform,
		CostOptions{WalkOptions: WalkOptions{Iterations: convergedTau}})
	if err != nil {
		t.Fatal(err)
	}
	spikedRec, err := NewSymmetricAbsorbingCost(g, "spiked", ue, spiked,
		CostOptions{WalkOptions: WalkOptions{Iterations: convergedTau}})
	if err != nil {
		t.Fatal(err)
	}
	sBase, err := base.ScoreItems(4)
	if err != nil {
		t.Fatal(err)
	}
	sSpiked, err := spikedRec.ScoreItems(4)
	if err != nil {
		t.Fatal(err)
	}
	// Cost of reaching absorption from M1 itself must rise strictly more
	// than the cost from M4 (whose walks traverse M1 less).
	deltaM1 := (-sSpiked[0]) - (-sBase[0])
	deltaM4 := (-sSpiked[3]) - (-sBase[3])
	if deltaM1 <= deltaM4 {
		t.Fatalf("spiking M1's entropy should hit M1 hardest: ΔM1=%v ΔM4=%v", deltaM1, deltaM4)
	}
}

func TestSymmetricCostRecommends(t *testing.T) {
	g := figure2Graph(t)
	d := figure2Dataset(t)
	ac3, err := NewSymmetricAbsorbingCost(g, "AC3",
		entropy.AllItemBased(d), entropy.AllItemEntropy(d),
		CostOptions{WalkOptions: WalkOptions{Iterations: convergedTau}})
	if err != nil {
		t.Fatal(err)
	}
	if ac3.Name() != "AC3" {
		t.Fatalf("name %q", ac3.Name())
	}
	requireOracle(t, &ac3.walkRecommender, 4)
	recs, err := RecommendItems(ac3, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("recs %v", recs)
	}
	// The niche M4 stays on top under the symmetric model too.
	if recs[0].Item != 3 {
		t.Fatalf("AC3 top rec %d, want 3 (M4)", recs[0].Item)
	}
	for _, r := range recs {
		if r.Item == 1 || r.Item == 2 {
			t.Fatal("rated item recommended")
		}
	}
}
