//go:build !race

package markov

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestSplitSweepsAllocs holds the two-core block schedule to zero
// allocations per walk, counted across the whole process (the helper
// goroutine included) at GOMAXPROCS=2, on a chain above splitMinEntries.
// Compiled out under -race, whose instrumentation allocates.
func TestSplitSweepsAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ch := zipfBlockedChain(t, rand.New(rand.NewSource(9)), 4000, 5000, 40000)
	if ch.adj.NNZ() < splitMinEntries {
		t.Fatalf("chain of %d entries is below the split threshold %d", ch.adj.NNZ(), splitMinEntries)
	}
	cols, _ := ch.adj.Row(0)
	enter := make([]float64, ch.n)
	for i := range enter {
		enter[i] = 1 + float64(i%7)/7
	}
	var scr ChainScratch
	helped := 0
	walk := func() {
		scr.Resize(ch.n)
		for _, s := range cols {
			scr.Mask[s] = true
		}
		if _, err := ch.AbsorbingCostFused(&scr, enter, 15); err != nil {
			t.Fatal(err)
		}
		helped += scr.split.helperChunks
	}
	walk() // starts the helper, sizes the scratch
	runtime.GC()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		walk()
	}
	runtime.ReadMemStats(&after)
	if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
		t.Fatalf("%d allocations per walk, want 0", allocs)
	}
	if helped == 0 {
		t.Fatal("the helper ran no chunk in any walk")
	}
}
