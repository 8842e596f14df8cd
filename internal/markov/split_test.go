package markov

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"longtailrec/internal/sparse"
)

// zipfBlockedChain builds a bipartite chain numbered as
// graph.SubgraphExtractor.ExtractByID numbers a component — users [0,b),
// items [b,n), blocks declared at (0, b) — with zipf-skewed user activity
// and item popularity. Item b is rated by every user but the last, so its
// row is longer than a chunk; the last user and the last item have no
// edges.
func zipfBlockedChain(tb testing.TB, rng *rand.Rand, users, items, ratings int) *Chain {
	tb.Helper()
	b, n := users, users+items
	coo := sparse.NewCOO(n, n)
	zu := rand.NewZipf(rng, 1.1, 4, uint64(users-2))
	zi := rand.NewZipf(rng, 1.2, 2, uint64(items-2))
	for e := 0; e < ratings; e++ {
		u, i := int(zu.Uint64()), b+int(zi.Uint64())
		w := float64(1 + rng.Intn(5))
		coo.Add(u, i, w)
		coo.Add(i, u, w)
	}
	for u := 0; u < users-1; u++ {
		coo.Add(u, b, 1)
		coo.Add(b, u, 1)
	}
	ch, err := NewChain(coo.ToCSR().DeclareBlocks(0, b))
	if err != nil {
		tb.Fatal(err)
	}
	return ch
}

// splitCase is one walk of the split tests: a chain, its absorbing set and
// entry costs (nil for unit costs).
type splitCase struct {
	name      string
	ch        *Chain
	absorbing []int
	enter     []float64
}

// walk runs τ sweeps of c through scr and returns a copy of the result.
func (c splitCase) walk(ctx context.Context, scr *ChainScratch, tau int) ([]float64, error) {
	scr.Resize(c.ch.Len())
	for _, s := range c.absorbing {
		scr.Mask[s] = true
	}
	enter := c.enter
	if enter != nil {
		enter = scr.Enter
		copy(enter, c.enter)
	}
	out, err := c.ch.AbsorbingCostFusedCtx(ctx, scr, enter, tau)
	return append([]float64(nil), out...), err
}

// splitCases returns the seed shapes of AT, HT and a mixed set on the
// small seed-prefix chains of TestFusedBlockScheduleBitwise and on a
// zipf-skewed ExtractByID-numbered chain, each under both kernels.
func splitCases(t *testing.T) []splitCase {
	t.Helper()
	var cases []splitCase
	for si, seedIsItem := range [][]bool{{true, true, true}, {false}, {true, false, true, false}} {
		rng := rand.New(rand.NewSource(int64(70 + si)))
		_, blocked := blockedTestChains(t, rng, seedIsItem, 14, 19)
		absorbing := []int{len(seedIsItem) + 1, len(seedIsItem) + 16}
		for l := range seedIsItem {
			absorbing = append(absorbing, l)
		}
		cases = append(cases, splitCase{name: fmt.Sprintf("prefix shape %d", si), ch: blocked, absorbing: absorbing})
	}
	rng := rand.New(rand.NewSource(77))
	const users, items = 400, 600
	z := zipfBlockedChain(t, rng, users, items, 3000)
	user := 3
	cols, _ := z.adj.Row(user)
	cases = append(cases,
		splitCase{name: "zipf, item seeds (AT)", ch: z, absorbing: append([]int(nil), cols...)},
		splitCase{name: "zipf, one user seed (HT)", ch: z, absorbing: []int{user}},
		splitCase{name: "zipf, mixed seeds", ch: z, absorbing: []int{user, cols[0], users + 7, 11}},
	)
	for _, c := range cases[:len(cases):len(cases)] {
		costs := make([]float64, c.ch.Len())
		for i := range costs {
			costs[i] = 0.05 + rng.Float64()*2
		}
		c.name += ", costed"
		c.enter = costs
		cases = append(cases, c)
	}
	return cases
}

// withSplitMin runs the kernel with threshold min for the rest of the test.
func withSplitMin(t *testing.T, min int) {
	old := splitMin
	splitMin = min
	t.Cleanup(func() { splitMin = old })
}

// atLeastTwoProcs gives the test two Ps, so the split can run.
func atLeastTwoProcs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		old := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// serialWalk is c's result with the split off.
func serialWalk(t *testing.T, c splitCase, tau int) []float64 {
	t.Helper()
	old := splitMin
	splitMin = math.MaxInt
	defer func() { splitMin = old }()
	var scr ChainScratch
	want, err := c.walk(nil, &scr, tau)
	if err != nil {
		t.Fatalf("%s, tau %d: %v", c.name, tau, err)
	}
	return want
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for l := range want {
		if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
			t.Fatalf("%s: entry %d = %v (%#x), want %v (%#x)", what, l, got[l], math.Float64bits(got[l]), want[l], math.Float64bits(want[l]))
		}
	}
}

// TestSplitSweepsBitwise holds the two-core block schedule to the one-core
// one, bit for bit on every entry: both kernels, τ 0–3, 15 and 16, the
// AT, HT and mixed seed shapes, on small chains (most chunks empty) and on
// a zipf-skewed chain with one row longer than a chunk and isolated rows.
// One scratch throughout, so a stale Arrive or split state would show.
// Each walk is repeated, and the helper must have run chunks in some.
func TestSplitSweepsBitwise(t *testing.T) {
	atLeastTwoProcs(t)
	cases := splitCases(t)
	z := cases[3].ch
	_, zb, _ := z.adj.Blocks()
	if chunk, big := z.adj.RowStart(z.n)/2/splitChunks, z.adj.RowNNZ(zb); big <= chunk {
		t.Fatalf("zipf chain: item %d has %d entries, not more than a chunk (%d)", zb, big, chunk)
	}
	if z.degrees[z.n-1] != 0 || z.degrees[zb-1] != 0 {
		t.Fatal("zipf chain: last user and last item are not isolated")
	}
	withSplitMin(t, 0)
	var scr ChainScratch
	helped := 0
	for _, c := range cases {
		for _, tau := range []int{0, 1, 2, 3, 15, 16} {
			want := serialWalk(t, c, tau)
			for rep := 0; rep < 4; rep++ {
				got, err := c.walk(nil, &scr, tau)
				if err != nil {
					t.Fatalf("%s, tau %d: %v", c.name, tau, err)
				}
				sameBits(t, fmt.Sprintf("%s, tau %d, run %d", c.name, tau, rep), got, want)
				helped += scr.split.helperChunks
			}
		}
	}
	if helped == 0 {
		t.Fatal("the helper ran no chunk in any walk")
	}
	t.Logf("helper ran %d chunks", helped)
}

// TestSplitCancelReuse cancels walks between two shared sweeps and reuses
// the scratch at once: the context error comes back bare, and the next
// walk on the scratch — which the race detector watches against any late
// write of the helper — is bit-identical to the one-core walk.
func TestSplitCancelReuse(t *testing.T) {
	atLeastTwoProcs(t)
	withSplitMin(t, 0)
	cases := splitCases(t)
	var scr ChainScratch
	for _, c := range cases[3:] {
		want := serialWalk(t, c, 15)
		for n := 1; n <= 12; n++ {
			if _, err := c.walk(&countdownCtx{Context: context.Background(), n: n}, &scr, 15); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, cancelled at check %d: err = %v, want context.Canceled", c.name, n, err)
			}
			got, err := c.walk(nil, &scr, 15)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s, after a cancel at check %d", c.name, n), got, want)
		}
	}
}

// TestSplitHelperJoinsLate holds the helper back until its walk has
// returned: the walk runs every chunk alone instead of waiting for it, the
// scratch serves another walk at once (the helper is still busy, so that
// one runs alone too), and the helper, released, leaves without touching
// either walk's rows — the race detector watches the scratch — and serves
// later walks again.
func TestSplitHelperJoinsLate(t *testing.T) {
	atLeastTwoProcs(t)
	withSplitMin(t, 0)
	cases := splitCases(t)
	c := cases[len(cases)-1]
	want := serialWalk(t, c, 15)
	joined, release := make(chan struct{}), make(chan struct{})
	hook := func() {
		joined <- struct{}{}
		<-release
	}
	joinHook.Store(&hook)
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(func() { joinHook.Store(nil); free() })
	// Walk until the helper takes an offer; it may still be finishing the
	// last test's walk, and then the walk runs alone.
	var scr ChainScratch
	for held := false; !held; {
		got, err := c.walk(nil, &scr, 15)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "walk the helper joins late or not at all", got, want)
		if scr.split.helperChunks != 0 {
			t.Fatalf("helper ran %d chunks while held back", scr.split.helperChunks)
		}
		select {
		case <-joined: // the helper took an offer, and its walk ended without it
			held = true
		default:
		}
	}
	joinHook.Store(nil)
	got, err := c.walk(nil, &scr, 15)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "next walk on the scratch, helper busy", got, want)
	if scr.split.helperChunks != 0 {
		t.Fatalf("helper ran %d chunks while held back", scr.split.helperChunks)
	}
	free()
	helped := 0
	for rep := 0; rep < 200 && helped == 0; rep++ {
		if got, err = c.walk(nil, &scr, 15); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "walk after the helper was released", got, want)
		helped = scr.split.helperChunks
	}
	if helped == 0 {
		t.Fatal("the released helper joined none of 200 walks")
	}
}

// TestSplitConcurrentWalks runs walks on several goroutines at once, each
// with its own scratch, contending for the one helper: every result is
// bit-identical to the one-core walk.
func TestSplitConcurrentWalks(t *testing.T) {
	atLeastTwoProcs(t)
	withSplitMin(t, 0)
	cases := splitCases(t)
	want := make([][]float64, len(cases))
	for i, c := range cases {
		want[i] = serialWalk(t, c, 15)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scr ChainScratch
			for rep := 0; rep < 30; rep++ {
				i := (g + rep) % len(cases)
				got, err := cases[i].walk(nil, &scr, 15)
				if err == nil {
					for l := range got {
						if math.Float64bits(got[l]) != math.Float64bits(want[i][l]) {
							err = fmt.Errorf("%s, goroutine %d: entry %d = %v, want %v", cases[i].name, g, l, got[l], want[i][l])
							break
						}
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSplitOneProc: with GOMAXPROCS=1 a walk above the threshold sweeps
// alone, to the same bits.
func TestSplitOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	withSplitMin(t, 0)
	var scr ChainScratch
	for _, c := range splitCases(t) {
		want := serialWalk(t, c, 15)
		got, err := c.walk(nil, &scr, 15)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, c.name+", GOMAXPROCS=1", got, want)
		if scr.split.helperChunks != 0 {
			t.Fatalf("%s: helper ran %d chunks under GOMAXPROCS=1", c.name, scr.split.helperChunks)
		}
	}
}

// TestCutChunks checks the chunk boundaries: they cover the block in
// order, and no chunk holds more than a chunk's share of the entries plus
// one row.
func TestCutChunks(t *testing.T) {
	ch := zipfBlockedChain(t, rand.New(rand.NewSource(5)), 300, 500, 2500)
	_, b, _ := ch.adj.Blocks()
	var bounds [splitChunks + 1]int
	for _, blk := range [][2]int{{0, b}, {b, ch.n}, {b, b}} {
		lo, hi := blk[0], blk[1]
		ch.cutChunks(&bounds, lo, hi)
		share := (ch.adj.RowStart(hi) - ch.adj.RowStart(lo) + splitChunks - 1) / splitChunks
		if bounds[0] != lo || bounds[splitChunks] != hi {
			t.Fatalf("block [%d,%d): chunks span [%d,%d)", lo, hi, bounds[0], bounds[splitChunks])
		}
		for k := 0; k < splitChunks; k++ {
			r0, r1 := bounds[k], bounds[k+1]
			if r0 > r1 {
				t.Fatalf("block [%d,%d): chunk %d is [%d,%d)", lo, hi, k, r0, r1)
			}
			if r1 > r0 {
				if got, last := ch.adj.RowStart(r1)-ch.adj.RowStart(r0), ch.adj.RowNNZ(r1-1); got > share+last {
					t.Fatalf("block [%d,%d): chunk %d holds %d entries, share %d, last row %d", lo, hi, k, got, share, last)
				}
			}
		}
	}
}

// BenchmarkSplitBreakEven times the block schedule at τ = 15 on zipf
// chains of growing size, on one core and shared with the helper: the
// measurement splitMinEntries is set from. Run it with -cpu 2.
func BenchmarkSplitBreakEven(b *testing.B) {
	for _, ratings := range []int{5000, 10000, 20000, 40000, 80000, 160000} {
		users, items := ratings/10, ratings/8
		ch := zipfBlockedChain(b, rand.New(rand.NewSource(9)), users, items, ratings)
		cols, _ := ch.adj.Row(0)
		for _, mode := range []struct {
			name string
			min  int
		}{{"serial", math.MaxInt}, {"split", 0}} {
			b.Run(fmt.Sprintf("entries=%dk/%s", ch.adj.NNZ()>>10, mode.name), func(b *testing.B) {
				old := splitMin
				splitMin = mode.min
				defer func() { splitMin = old }()
				var scr ChainScratch
				enter := make([]float64, ch.n)
				for i := range enter {
					enter[i] = 1 + float64(i%7)/7
				}
				for i := 0; i < b.N; i++ {
					scr.Resize(ch.n)
					for _, s := range cols {
						scr.Mask[s] = true
					}
					if _, err := ch.AbsorbingCostFused(&scr, enter, 15); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
