// Package topk provides a bounded top-k selector over scored items using a
// size-k min-heap: O(n log k) instead of the O(n log n) full sort, which
// matters when ranking 90k-item catalogs for thousands of panel users.
// Ties break toward the smaller item index, matching the deterministic
// ordering the evaluation protocols assume.
package topk

import "container/heap"

// Item is a scored candidate.
type Item struct {
	ID    int
	Score float64
}

// less orders a *below* b when a has a lower score, or an equal score and
// a higher ID — so the heap root is always the weakest member and ties
// evict larger IDs first.
func less(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// minHeap implements heap.Interface keeping the weakest item at the root.
type minHeap []Item

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return less(h[i], h[j]) }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(Item)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Selector accumulates candidates and yields the k best.
type Selector struct {
	k int
	h minHeap
}

// NewSelector creates a selector for the k highest-scoring items. k <= 0
// yields an empty result.
func NewSelector(k int) *Selector {
	if k < 0 {
		k = 0
	}
	return &Selector{k: k, h: make(minHeap, 0, k)}
}

// Offer considers one candidate.
func (s *Selector) Offer(id int, score float64) {
	if s.k == 0 {
		return
	}
	it := Item{ID: id, Score: score}
	if len(s.h) < s.k {
		// heap.Push boxes at most k items while the heap fills; the steady
		// state takes the in-place replace path below.
		heap.Push(&s.h, it)
		return
	}
	if less(s.h[0], it) {
		s.h[0] = it
		heap.Fix(&s.h, 0)
	}
}

// Len returns how many items are currently held (≤ k).
func (s *Selector) Len() int { return len(s.h) }

// Take drains the selector, returning items in best-first order (highest
// score first; ties by ascending ID). The selector is empty afterwards.
func (s *Selector) Take() []Item {
	out := make([]Item, len(s.h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&s.h).(Item)
	}
	return out
}

// Select is a convenience one-shot: the top k of (id, score) pairs fed by
// the visit callback. The callback receives an Offer function.
func Select(k int, visit func(offer func(id int, score float64))) []Item {
	s := NewSelector(k)
	visit(s.Offer)
	return s.Take()
}
