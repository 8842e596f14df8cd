// Router: one recommender per replica presented as a single recommender.

package shard

import (
	"fmt"

	"longtailrec/internal/core"
	"longtailrec/internal/graph"
)

// Router fronts one per-shard recommender per replica (typically each
// shard's cache-wrapped engine over that shard's graph) as a single
// core.Recommender: every request routes by user id through Assign. The
// router adds nothing to the per-shard hot path — a routed request runs
// on exactly the same code the unsharded stack runs — so the no-options
// fast path keeps its allocation discipline within each shard, and a
// batch over it (core.ServeBatch) runs at most its own worker count of
// shard queries at once, whatever the shard count.
type Router struct {
	algo   string
	shards []core.Recommender
}

// NewRouter builds a router over the per-shard recommenders, indexed by
// shard (shards[i] serves users with Assign(u, len(shards)) == i). At
// least one shard is required and all must be non-nil.
func NewRouter(algo string, shards []core.Recommender) (*Router, error) {
	if algo == "" {
		return nil, fmt.Errorf("shard: router needs an algorithm name")
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	for i, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("shard: router shard %d is nil", i)
		}
	}
	return &Router{algo: algo, shards: shards}, nil
}

// Name implements core.Recommender.
func (r *Router) Name() string { return r.algo }

// forUser returns the replica recommender serving user u.
func (r *Router) forUser(u int) core.Recommender {
	return r.shards[Assign(u, len(r.shards))]
}

// ScoreItems implements core.Recommender, delegating to the user's shard.
func (r *Router) ScoreItems(u int) ([]float64, error) {
	return r.forUser(u).ScoreItems(u)
}

// Recommend implements core.Recommender: the request runs on its user's
// shard — same context handling, same options, same cache — and the
// Response's Epoch is that shard's epoch.
func (r *Router) Recommend(req core.Request, fp *graph.Fingerprint) (core.Response, error) {
	return r.forUser(req.User).Recommend(req, fp)
}
