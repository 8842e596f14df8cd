// Two cores for one walk: the block schedule's sweeps cut into row chunks
// that the query goroutine shares with one process-wide helper goroutine.

package markov

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// splitChunks is the number of row chunks each sweep of the block schedule
// is cut into when it is shared with the helper.
const splitChunks = 32

// splitMinEntries is the size, in stored entries of the chain, from which
// the block schedule shares its sweeps with the helper; smaller chains run
// on one core. BenchmarkSplitBreakEven (-cpu 2, 200 walks per run, median
// of 5 runs, on a shared 2-vCPU x86-64 virtual machine) times the cost
// kernel at τ = 15 on zipf-skewed chains both ways; split / one-core time
// was 1.57× at 7k entries, 1.06× at 14k, 0.85× at 28k, 0.68× at 55k,
// 0.69× at 106k and 0.64× at 208k. The break-even is near 16k. The
// constant is three times that, so the split only runs where it clearly
// wins, and the serving benchmark's clustered islands (≈ 24k entries,
// read by a saturated closed loop that already keeps both cores busy)
// stay on one.
const splitMinEntries = 48 << 10

// splitMin is the threshold the kernel reads: splitMinEntries, lowered by
// tests to run the split on small chains.
var splitMin = splitMinEntries

// sweepSplit is the per-walk state of a shared block schedule, kept in
// ChainScratch so that a walk allocates nothing.
type sweepSplit struct {
	// word is (sweep generation << 32 | next unclaimed chunk). Generations
	// only grow: a walk of τ sweeps owns [first, first+τ) and ends by
	// storing first+τ, so a helper holding an older walk's offer sees a
	// generation outside its range and leaves. It is the only field a
	// helper reads before it has claimed a chunk, and the only one it
	// touches after its walk has returned.
	word atomic.Uint64
	// helped counts the chunks the helper finished in the current sweep.
	helped atomic.Uint32
	// next is the first generation of the next walk.
	next uint32

	// The walk, written before its first generation is published and read
	// by the helper only while it holds a chunk of it.
	chain  *Chain
	enter  []float64
	bounds [2][splitChunks + 1]int // chunk rows of blocks [a,b) and [b,n), by sweepHalf

	// helperChunks is the number of chunks the helper ran in the last
	// walk (0 when it did not join); tests read it.
	helperChunks int
}

// sweepOffer hands one walk to the helper: its scratch and its range of
// generations.
type sweepOffer struct {
	scr        *ChainScratch
	first, tau uint32
}

var (
	// offers is unbuffered: a send succeeds only when the helper is parked
	// in its receive, so a walk never queues behind another.
	offers     = make(chan sweepOffer)
	helperOnce sync.Once
)

// joinHook, when a test sets it, runs on the helper after it receives an
// offer and before it looks at the walk.
var joinHook atomic.Pointer[func()]

// sweepHelper is the one helper goroutine, started by the first walk that
// can use it. It lives as long as the process, parked in the receive
// between walks; nothing waits for it, since it holds no resource and a
// walk never waits for it to join.
func sweepHelper() {
	for o := range offers {
		if hook := joinHook.Load(); hook != nil {
			(*hook)()
		}
		o.scr.help(o.first, o.tau)
	}
}

// splitSweeps runs the block schedule's τ sweeps shared with the helper.
// It returns done = false, having run nothing, when the helper is busy
// with another walk or only one P exists; the caller then sweeps alone.
// Arrive must hold sweep 0's inputs.
func (c *Chain) splitSweeps(ctx context.Context, scr *ChainScratch, enter []float64, tau int, rows [2][2]int) (done bool, err error) {
	if runtime.GOMAXPROCS(0) < 2 {
		return false, nil
	}
	helperOnce.Do(func() { go sweepHelper() })
	sp := &scr.split
	sp.helperChunks = 0
	sp.chain, sp.enter = c, enter
	for h, r := range rows {
		c.cutChunks(&sp.bounds[h], r[0], r[1])
	}
	first := sp.next
	sp.next += uint32(tau) + 1
	// Sweep 0 is published all claimed: a helper that takes the offer
	// waits for the loop below to open it.
	sp.word.Store(uint64(first)<<32 | splitChunks)
	select {
	case offers <- sweepOffer{scr, first, uint32(tau)}:
	default:
		sp.word.Store(uint64(first+uint32(tau)) << 32)
		sp.chain, sp.enter = nil, nil
		return false, nil
	}
	cur := scr.Cur
	for t := 0; t < tau; t++ {
		// The context check precedes the sweep's opening, so a cancelled
		// walk has no chunk out with the helper.
		if ctx != nil {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		sp.helped.Store(0)
		sp.word.Store(uint64(first+uint32(t)) << 32)
		bounds := &sp.bounds[sweepHalf(t, tau)]
		mine := 0
		for {
			k := int(uint32(sp.word.Add(1)) - 1)
			if k >= splitChunks {
				break
			}
			c.sweepRows(scr, enter, cur, cur, t, bounds[k], bounds[k+1], true)
			mine++
		}
		// Every chunk is claimed; wait only for those the helper holds.
		for spins := 0; int(sp.helped.Load()) != splitChunks-mine; spins++ {
			backoff(spins)
		}
		sp.helperChunks += splitChunks - mine
	}
	sp.word.Store(uint64(first+uint32(tau)) << 32)
	sp.chain, sp.enter = nil, nil
	return true, err
}

// help runs the chunks of the walk that owns generations [first,
// first+tau) of s until that walk stops publishing them. It reads the rest
// of s only between a successful claim and its report in helped, while the
// walk waits for it.
func (s *ChainScratch) help(first, tau uint32) {
	sp := &s.split
	for spins := 0; ; {
		w := sp.word.Load()
		t := uint32(w>>32) - first
		if t >= tau {
			return // the walk has ended, or the word is a later walk's
		}
		k := uint32(w)
		if k >= splitChunks {
			// This sweep is all claimed: wait for the next.
			backoff(spins)
			spins++
			continue
		}
		if !sp.word.CompareAndSwap(w, w+1) {
			continue
		}
		spins = 0
		bounds := &sp.bounds[sweepHalf(int(t), int(tau))]
		sp.chain.sweepRows(s, sp.enter, s.Cur, s.Cur, int(t), bounds[k], bounds[k+1], true)
		sp.helped.Add(1)
	}
}

// backoff is one step of a spin-wait on the other goroutine of a walk: a
// bare poll for the length of about one chunk, then a yield per poll.
func backoff(spins int) {
	if spins >= 1<<12 {
		runtime.Gosched()
	}
}

// cutChunks cuts rows [lo,hi) into splitChunks ranges of about equal
// stored entries: chunk k is rows [bounds[k], bounds[k+1]), and ends at
// the first row boundary at or past (k+1)/splitChunks of the entries. A
// row longer than a chunk leaves the chunks its entries span empty.
func (c *Chain) cutChunks(bounds *[splitChunks + 1]int, lo, hi int) {
	base := c.adj.RowStart(lo)
	total := c.adj.RowStart(hi) - base
	bounds[0] = lo
	for k := 1; k < splitChunks; k++ {
		// The first row at or past k/splitChunks of the entries.
		want := base + k*total/splitChunks
		l, r := bounds[k-1], hi
		for l < r {
			m := int(uint(l+r) >> 1)
			if c.adj.RowStart(m) < want {
				l = m + 1
			} else {
				r = m
			}
		}
		bounds[k] = l
	}
	bounds[splitChunks] = hi
}
