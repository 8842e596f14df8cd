package markov

import (
	"math"
	"math/rand"
	"testing"

	"longtailrec/internal/graph"
	"longtailrec/internal/markov/markovtest"
)

// rwrScores is random walk with restart from node q: the stationary
// distribution of a walk that returns to q with probability 1-damping
// after every step, by power iteration.
func rwrScores(c *Chain, q int, damping float64, iters int, tol float64) []float64 {
	cur := make([]float64, c.Len())
	nxt := make([]float64, c.Len())
	cur[q] = 1
	for it := 0; it < iters; it++ {
		stepDistribution(c, cur, nxt)
		diff := 0.0
		for i := range nxt {
			v := damping * nxt[i]
			if i == q {
				v += 1 - damping
			}
			diff += math.Abs(v - cur[i])
			nxt[i] = v
		}
		cur, nxt = nxt, cur
		if diff < tol {
			break
		}
	}
	return cur
}

// TestSection32PopularityBias validates the paper's §3.2/§3.3 motivation:
// commute time and RWR rank items nearly in popularity order, while the
// hitting time H(q|j) breaks that correlation by discounting the
// stationary mass. Commute time is C(q,j) = H(q|j) + H(j|q), from exact
// hitting-time solves.
func TestSection32PopularityBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// A popularity-skewed bipartite graph.
	const nu, ni = 60, 40
	b := graph.NewBuilder(nu, ni)
	for u := 0; u < nu; u++ {
		seen := map[int]bool{}
		for k := 0; k < 8; k++ {
			i := int(float64(ni) * math.Pow(rng.Float64(), 2.5))
			if i >= ni || seen[i] {
				continue
			}
			seen[i] = true
			_ = b.AddRating(u, i, float64(1+rng.Intn(5)))
		}
	}
	g := b.Build()
	ch := chainOf(t, g)
	pop := g.ItemPopularity()
	q := g.UserNode(0)

	// High damping: the walk mixes toward the stationary distribution,
	// which is the regime the paper's popularity-bias argument describes.
	rwr := rwrScores(ch, q, 0.9, 2000, 1e-12)
	ht, err := markovtest.HittingTime(ch.adj, q) // H(q|j) for every j
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]float64, ni)
	for i := range ct {
		ct[i] = math.Inf(1)
		if pop[i] == 0 {
			continue // isolated: no walk reaches it
		}
		from, err := markovtest.HittingTime(ch.adj, g.ItemNode(i)) // H(j|q) at from[q]
		if err != nil {
			t.Fatal(err)
		}
		ct[i] = ht[g.ItemNode(i)] + from[q]
	}

	// Pearson correlation between item popularity and each proximity's
	// preference (a sign/strength check).
	corr := func(score func(item int) float64) float64 {
		type pair struct{ pop, s float64 }
		var ps []pair
		for i := 0; i < ni; i++ {
			v := score(i)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			ps = append(ps, pair{pop: float64(pop[i]), s: v})
		}
		var mp, ms float64
		for _, p := range ps {
			mp += p.pop
			ms += p.s
		}
		mp /= float64(len(ps))
		ms /= float64(len(ps))
		var num, dp, ds float64
		for _, p := range ps {
			num += (p.pop - mp) * (p.s - ms)
			dp += (p.pop - mp) * (p.pop - mp)
			ds += (p.s - ms) * (p.s - ms)
		}
		if dp == 0 || ds == 0 {
			return 0
		}
		return num / math.Sqrt(dp*ds)
	}
	rwrCorr := corr(func(i int) float64 { return rwr[g.ItemNode(i)] })
	ctCorr := corr(func(i int) float64 { return -ct[i] })             // small commute = preferred
	htCorr := corr(func(i int) float64 { return -ht[g.ItemNode(i)] }) // small hitting time = preferred

	if rwrCorr < 0.5 {
		t.Fatalf("RWR popularity correlation %v — expected strong bias", rwrCorr)
	}
	if ctCorr < 0.5 {
		t.Fatalf("commute-time popularity correlation %v — expected strong bias", ctCorr)
	}
	if htCorr > ctCorr-0.2 {
		t.Fatalf("hitting time correlation %v not clearly below commute time %v", htCorr, ctCorr)
	}
}
