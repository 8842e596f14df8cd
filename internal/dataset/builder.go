// Builder: incremental dataset construction for streaming ingest paths,
// plus rating-matrix transforms (implicit binarization, score clamping)
// used when adapting corpora to the graph algorithms' positive-weight
// requirement.

package dataset

import (
	"fmt"
)

// Builder accumulates ratings one at a time and materializes an immutable
// Dataset. Unlike New, which rejects duplicate (user, item) pairs, the
// Builder resolves them by policy — the common situation when replaying an
// event stream where users re-rate items.
type Builder struct {
	policy  DupPolicy
	ratings map[[2]int]float64
	order   [][2]int // first-seen order, for deterministic output
	maxUser int
	maxItem int
	err     error
}

// DupPolicy says how a Builder resolves repeated (user, item) ratings.
type DupPolicy int

const (
	// KeepLast overwrites with the newest score (event-stream semantics).
	KeepLast DupPolicy = iota
	// KeepFirst ignores later scores.
	KeepFirst
	// KeepMax keeps the highest score.
	KeepMax
	// Reject makes the Builder error on any duplicate, matching New.
	Reject
)

// String names the policy.
func (p DupPolicy) String() string {
	switch p {
	case KeepLast:
		return "keep-last"
	case KeepFirst:
		return "keep-first"
	case KeepMax:
		return "keep-max"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// NewBuilder returns an empty Builder with the given duplicate policy.
func NewBuilder(policy DupPolicy) *Builder {
	return &Builder{
		policy:  policy,
		ratings: make(map[[2]int]float64),
	}
}

// Add ingests one rating. Invalid input (negative indices, non-positive
// score) or a duplicate under the Reject policy poisons the Builder; the
// error surfaces from Build. Add reports the sticky error early so
// streaming loops can abort.
func (b *Builder) Add(user, item int, score float64) error {
	if b.err != nil {
		return b.err
	}
	switch {
	case user < 0:
		b.err = fmt.Errorf("dataset: builder: negative user %d", user)
	case item < 0:
		b.err = fmt.Errorf("dataset: builder: negative item %d", item)
	case score <= 0:
		b.err = fmt.Errorf("dataset: builder: score %v must be positive (user %d, item %d)", score, user, item)
	}
	if b.err != nil {
		return b.err
	}
	key := [2]int{user, item}
	old, dup := b.ratings[key]
	if dup {
		switch b.policy {
		case KeepLast:
			b.ratings[key] = score
		case KeepFirst:
			// keep old
		case KeepMax:
			if score > old {
				b.ratings[key] = score
			}
		case Reject:
			b.err = fmt.Errorf("dataset: builder: duplicate rating (user %d, item %d)", user, item)
			return b.err
		}
		return nil
	}
	b.ratings[key] = score
	b.order = append(b.order, key)
	if user > b.maxUser {
		b.maxUser = user
	}
	if item > b.maxItem {
		b.maxItem = item
	}
	return nil
}

// Len returns the number of distinct (user, item) pairs ingested so far.
func (b *Builder) Len() int { return len(b.ratings) }

// Build materializes the dataset. The universe is sized to the largest
// indices seen unless numUsers/numItems demand more room (pass 0, 0 to
// size automatically). Build leaves the Builder reusable for further Adds.
func (b *Builder) Build(numUsers, numItems int) (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.order) == 0 {
		return nil, fmt.Errorf("dataset: builder: no ratings")
	}
	if numUsers <= b.maxUser {
		numUsers = b.maxUser + 1
	}
	if numItems <= b.maxItem {
		numItems = b.maxItem + 1
	}
	ratings := make([]Rating, 0, len(b.order))
	for _, key := range b.order {
		ratings = append(ratings, Rating{User: key[0], Item: key[1], Score: b.ratings[key]})
	}
	return New(numUsers, numItems, ratings)
}

// ToImplicit derives an implicit-feedback dataset: every rating at or
// above threshold becomes weight 1 and the rest are dropped — the standard
// reduction when only "consumed / not consumed" signals are trusted.
// Universe sizes are preserved.
func (d *Dataset) ToImplicit(threshold float64) (*Dataset, error) {
	kept := make([]Rating, 0, len(d.ratings))
	for _, r := range d.ratings {
		if r.score >= threshold {
			kept = append(kept, Rating{User: int(r.user), Item: int(r.item), Score: 1})
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("dataset: implicit threshold %v drops every rating", threshold)
	}
	return New(d.numUsers, d.numItems, kept)
}

// ClampScores derives a dataset with every score clamped into [lo, hi] —
// defensive normalization for crawled corpora with out-of-scale values.
func (d *Dataset) ClampScores(lo, hi float64) (*Dataset, error) {
	if lo <= 0 || hi < lo {
		return nil, fmt.Errorf("dataset: clamp bounds (%v, %v) need 0 < lo <= hi", lo, hi)
	}
	out := make([]Rating, len(d.ratings))
	for k, r := range d.ratings {
		out[k] = r.export()
		out[k].Score = min(max(r.score, lo), hi)
	}
	return New(d.numUsers, d.numItems, out)
}
