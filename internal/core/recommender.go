// Package core implements the paper's contribution: the suite of
// graph-based long-tail recommenders — Hitting Time (§3.3), Absorbing Time
// (§4.1, Algorithm 1) and the two entropy-biased Absorbing Cost variants
// (§4.2) — behind a single Recommender interface, plus adapters that wrap
// the score-based baselines (LDA, PureSVD, DPPR, popularity) so the
// evaluation harness can treat every algorithm uniformly.
//
// All recommenders expose higher-is-better item scores; the random-walk
// algorithms internally rank by smallest time/cost and negate, so a small
// hitting time becomes a large score. Items an algorithm cannot score for
// a user (e.g. outside the BFS subgraph of Algorithm 1) get -Inf.
package core

import (
	"errors"
	"fmt"

	"longtailrec/internal/graph"
)

// ErrColdUser is returned when a query user has no rated items to anchor
// the walk (S_q = ∅).
var ErrColdUser = errors.New("core: user has no rated items")

// ErrUserOutOfRange marks a query for a user index outside the live
// universe — a sentinel so the HTTP layer's 404 mapping does not hinge
// on the message wording.
var ErrUserOutOfRange = errors.New("user out of range")

// ErrUnknownAlgorithm marks a request for an algorithm name the suite
// does not hold — a sentinel for the same reason as ErrUserOutOfRange:
// the HTTP layer's 400 must not hinge on the message wording.
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// Scored pairs an item with its ranking score (higher is better).
type Scored struct {
	Item  int
	Score float64
}

// Recommender is the uniform interface over all algorithms in the paper's
// evaluation: one query method, whatever sits behind it (the pooled walk
// engine, a score-function adapter, the caching wrapper, a shard router).
type Recommender interface {
	// Name identifies the algorithm (e.g. "HT", "AC2", "PureSVD").
	Name() string
	// ScoreItems returns a per-item score vector for user u, higher
	// meaning more recommendable. Unscorable items are -Inf. The caller
	// owns the returned slice.
	ScoreItems(u int) ([]float64, error)
	// Recommend serves one Request: the top-K items for req.User by score,
	// excluding the items the user has already rated, honoring the
	// request's context and option fields. Fewer than K items may be
	// returned when the algorithm cannot score enough candidates.
	//
	// fp, when non-nil, receives the query's dependency fingerprint — what
	// a caching layer stores to revalidate the result precisely instead of
	// by whole-graph epoch. Pass a zero Fingerprint: an implementation that
	// cannot fingerprint leaves *fp untouched (invalid), which the cache
	// treats as "revalidate epoch-exactly". nil means not wanted and costs
	// nothing.
	Recommend(req Request, fp *graph.Fingerprint) (Response, error)
}

// RecommendItems is the plain (user, k) query — no context, no options,
// just the list — for callers that want nothing else from the Response
// (the offline evaluation protocols, examples, tests).
func RecommendItems(r Recommender, u, k int) ([]Scored, error) {
	resp, err := r.Recommend(Request{User: u, K: k}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// RankOf returns the 1-based rank of target within the candidate set under
// the given scores (higher scores rank first; ties resolved against the
// target pessimistically, matching the conservative reading of the
// Recall@N protocol). Returns 0 if the target is not in candidates.
func RankOf(scores []float64, target int, candidates []int) int {
	found := false
	for _, c := range candidates {
		if c == target {
			found = true
			break
		}
	}
	if !found {
		return 0
	}
	ts := scores[target]
	rank := 1
	for _, c := range candidates {
		if c == target {
			continue
		}
		cs := scores[c]
		if cs > ts || (cs == ts && c < target) {
			rank++
		}
	}
	return rank
}

// validateUser bounds-checks a user index against a universe size.
func validateUser(u, numUsers int) error {
	if u < 0 || u >= numUsers {
		return fmt.Errorf("core: %w: user %d not in [0,%d)", ErrUserOutOfRange, u, numUsers)
	}
	return nil
}
