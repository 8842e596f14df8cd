// Package dataset holds rating data and the split/stat operations the
// paper's evaluation protocol needs: dense user/item indexing, long-tail vs
// short-head catalog splits (§5.1.2), leave-out test splits for the
// Recall@N protocol (§5.2.1), and basic corpus statistics.
package dataset

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"longtailrec/internal/graph"
)

// Rating is a single (user, item, score) observation with dense indices.
type Rating struct {
	User, Item int
	Score      float64
}

// rating is Rating as a Dataset stores it: 16 bytes against Rating's 24.
type rating struct {
	user, item int32
	score      float64
}

func (r rating) export() Rating { return Rating{User: int(r.user), Item: int(r.item), Score: r.score} }

// csr indexes ratings by one endpoint: row r's rating indices are
// idx[off[r]:off[r+1]], in input order.
type csr struct {
	off, idx []int32
}

// newCSR indexes ratings into rows by key with a stable counting sort.
func newCSR(rows int, ratings []rating, key func(rating) int32) csr {
	c := csr{off: make([]int32, rows+1), idx: make([]int32, len(ratings))}
	for _, r := range ratings {
		c.off[key(r)+1]++
	}
	for r := 1; r <= rows; r++ {
		c.off[r] += c.off[r-1]
	}
	// Fill with off[r] as row r's cursor, which leaves it at row r's end,
	// then shift the offsets back by one row.
	for k, r := range ratings {
		row := key(r)
		c.idx[c.off[row]] = int32(k)
		c.off[row]++
	}
	copy(c.off[1:], c.off[:rows])
	c.off[0] = 0
	return c
}

func (c csr) row(r int) []int32 { return c.idx[c.off[r]:c.off[r+1]] }

func (c csr) degree(r int) int { return int(c.off[r+1] - c.off[r]) }

// Dataset is an immutable collection of ratings over dense user/item
// universes. Build one with New or a loader; mutate by deriving new
// datasets (e.g. RemoveRatings).
type Dataset struct {
	numUsers, numItems int
	ratings            []rating
	byUser, byItem     csr
}

// New validates and indexes a rating slice. Scores must be positive and
// finite (the bipartite graph requires positive edge weights). Duplicate
// (user, item) pairs are rejected: a rating is a single edge. The error
// names the first fault in input order, a duplicate at its second
// occurrence. Universe sizes and the rating count must fit the int32
// indices a Dataset stores.
func New(numUsers, numItems int, ratings []Rating) (*Dataset, error) {
	if numUsers <= 0 || numItems <= 0 {
		return nil, fmt.Errorf("dataset: need positive universe sizes, got %d users, %d items", numUsers, numItems)
	}
	if max(numUsers, numItems, len(ratings)) > math.MaxInt32 {
		return nil, fmt.Errorf("dataset: %d users, %d items, %d ratings exceed the int32 index range", numUsers, numItems, len(ratings))
	}
	rs := make([]rating, len(ratings))
	var fault error
	for k, r := range ratings {
		switch {
		case r.User < 0 || r.User >= numUsers:
			fault = fmt.Errorf("dataset: rating %d user %d out of range [0,%d)", k, r.User, numUsers)
		case r.Item < 0 || r.Item >= numItems:
			fault = fmt.Errorf("dataset: rating %d item %d out of range [0,%d)", k, r.Item, numItems)
		case r.Score <= 0:
			fault = fmt.Errorf("dataset: rating %d score %v must be positive", k, r.Score)
		case math.IsNaN(r.Score) || math.IsInf(r.Score, 1):
			fault = fmt.Errorf("dataset: rating %d score %v must be finite", k, r.Score)
		}
		if fault != nil {
			rs = rs[:k]
			break
		}
		rs[k] = rating{user: int32(r.User), item: int32(r.Item), score: r.Score}
	}
	d := &Dataset{
		numUsers: numUsers,
		numItems: numItems,
		ratings:  rs,
		byUser:   newCSR(numUsers, rs, func(r rating) int32 { return r.user }),
	}
	// A duplicate among the ratings before the first fault comes first.
	if err := cmp.Or(d.duplicate(), fault); err != nil {
		return nil, err
	}
	d.byItem = newCSR(numItems, rs, func(r rating) int32 { return r.item })
	return d, nil
}

// duplicate reports the earliest rating that repeats an earlier
// (user, item) pair: the first repeat within some user's ratings, found by
// stamping each item with the user whose ratings are being walked.
func (d *Dataset) duplicate() error {
	dup := len(d.ratings)
	stamp := make([]int32, d.numItems)
	for u := range d.numUsers {
		for _, k := range d.byUser.row(u) {
			if i := d.ratings[k].item; stamp[i] != int32(u+1) {
				stamp[i] = int32(u + 1)
			} else {
				dup = min(dup, int(k))
				break
			}
		}
	}
	if dup == len(d.ratings) {
		return nil
	}
	return fmt.Errorf("dataset: duplicate rating (user %d, item %d)", d.ratings[dup].user, d.ratings[dup].item)
}

// NumUsers returns the user-universe size.
func (d *Dataset) NumUsers() int { return d.numUsers }

// NumItems returns the item-universe size.
func (d *Dataset) NumItems() int { return d.numItems }

// NumRatings returns the rating count.
func (d *Dataset) NumRatings() int { return len(d.ratings) }

// Rating returns the k-th rating.
func (d *Dataset) Rating(k int) Rating { return d.ratings[k].export() }

// Ratings returns a copy of all ratings.
func (d *Dataset) Ratings() []Rating {
	out := make([]Rating, len(d.ratings))
	for k, r := range d.ratings {
		out[k] = r.export()
	}
	return out
}

// gather returns the ratings at the given indices (freshly allocated).
func (d *Dataset) gather(idx []int32) []Rating {
	out := make([]Rating, len(idx))
	for n, k := range idx {
		out[n] = d.ratings[k].export()
	}
	return out
}

// Density returns nnz / (users × items).
func (d *Dataset) Density() float64 {
	return float64(len(d.ratings)) / (float64(d.numUsers) * float64(d.numItems))
}

// UserRatings returns user u's ratings (freshly allocated).
func (d *Dataset) UserRatings(u int) []Rating { return d.gather(d.byUser.row(u)) }

// UserItemSet returns the set of items rated by u (the paper's S_u).
func (d *Dataset) UserItemSet(u int) map[int]struct{} {
	idx := d.byUser.row(u)
	out := make(map[int]struct{}, len(idx))
	for _, k := range idx {
		out[int(d.ratings[k].item)] = struct{}{}
	}
	return out
}

// UserDegree returns how many items user u rated.
func (d *Dataset) UserDegree(u int) int { return d.byUser.degree(u) }

// ItemDegree returns how many users rated item i: its popularity.
func (d *Dataset) ItemDegree(i int) int { return d.byItem.degree(i) }

// ItemRatings returns item i's ratings (freshly allocated).
func (d *Dataset) ItemRatings(i int) []Rating { return d.gather(d.byItem.row(i)) }

// ItemPopularity returns, per item, its rating frequency — the paper's
// popularity measure (§5.2.2).
func (d *Dataset) ItemPopularity() []int {
	out := make([]int, d.numItems)
	for i := range out {
		out[i] = d.byItem.degree(i)
	}
	return out
}

// HasRating reports whether (u, i) is present.
func (d *Dataset) HasRating(u, i int) bool {
	for _, k := range d.byUser.row(u) {
		if int(d.ratings[k].item) == i {
			return true
		}
	}
	return false
}

// Score returns the rating score of (u, i) and whether it exists.
func (d *Dataset) Score(u, i int) (float64, bool) {
	for _, k := range d.byUser.row(u) {
		if int(d.ratings[k].item) == i {
			return d.ratings[k].score, true
		}
	}
	return 0, false
}

// Graph converts the dataset into the paper's edge-weighted bipartite
// graph, with rating scores as edge weights (§3.1).
func (d *Dataset) Graph() *graph.Bipartite {
	b := graph.NewBuilder(d.numUsers, d.numItems)
	for _, r := range d.ratings {
		// Ratings were validated at construction, so AddRating cannot fail.
		if err := b.AddRating(int(r.user), int(r.item), r.score); err != nil {
			panic(fmt.Sprintf("dataset: invariant violated: %v", err))
		}
	}
	return b.Build()
}

// LongTailItems returns the set of long-tail ("niche") items per §5.1.2:
// the least-popular items that in aggregate generate tailShare of all
// ratings (the paper uses tailShare = 0.20, the 80/20 rule). Ties in
// popularity are broken by item index for determinism. Items with zero
// ratings are part of the tail.
func (d *Dataset) LongTailItems(tailShare float64) map[int]struct{} {
	if tailShare < 0 || tailShare > 1 {
		panic(fmt.Sprintf("dataset: tailShare %v out of [0,1]", tailShare))
	}
	pop := d.ItemPopularity()
	order := make([]int, d.numItems)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if pop[order[a]] != pop[order[b]] {
			return pop[order[a]] < pop[order[b]]
		}
		return order[a] < order[b]
	})
	budget := tailShare * float64(len(d.ratings))
	tail := make(map[int]struct{})
	acc := 0.0
	for _, i := range order {
		if acc >= budget {
			break
		}
		tail[i] = struct{}{}
		acc += float64(pop[i])
	}
	return tail
}

// Stats summarizes a dataset the way §5.1.2 describes the corpora.
type Stats struct {
	NumUsers, NumItems, NumRatings int
	Density                        float64
	MinUserDegree, MaxUserDegree   int
	MinItemDegree, MaxItemDegree   int
	MeanScore                      float64
	TailItemFraction               float64 // fraction of items in the 20% tail
}

// Summarize computes corpus statistics, including the fraction of items
// that fall in the 20%-of-ratings long tail (the paper reports ~66% for
// MovieLens and ~73% for Douban).
func (d *Dataset) Summarize() Stats {
	s := Stats{
		NumUsers:      d.numUsers,
		NumItems:      d.numItems,
		NumRatings:    len(d.ratings),
		Density:       d.Density(),
		MinUserDegree: int(^uint(0) >> 1),
		MinItemDegree: int(^uint(0) >> 1),
	}
	for u := 0; u < d.numUsers; u++ {
		deg := d.byUser.degree(u)
		if deg < s.MinUserDegree {
			s.MinUserDegree = deg
		}
		if deg > s.MaxUserDegree {
			s.MaxUserDegree = deg
		}
	}
	for i := 0; i < d.numItems; i++ {
		deg := d.byItem.degree(i)
		if deg < s.MinItemDegree {
			s.MinItemDegree = deg
		}
		if deg > s.MaxItemDegree {
			s.MaxItemDegree = deg
		}
	}
	total := 0.0
	for _, r := range d.ratings {
		total += r.score
	}
	if len(d.ratings) > 0 {
		s.MeanScore = total / float64(len(d.ratings))
	}
	s.TailItemFraction = float64(len(d.LongTailItems(0.2))) / float64(d.numItems)
	return s
}

// RemoveRatings derives a new dataset without the ratings at the given
// indices (indices into the original rating order).
func (d *Dataset) RemoveRatings(drop map[int]struct{}) (*Dataset, error) {
	kept := make([]Rating, 0, len(d.ratings)-len(drop))
	for k, r := range d.ratings {
		if _, gone := drop[k]; !gone {
			kept = append(kept, r.export())
		}
	}
	return New(d.numUsers, d.numItems, kept)
}

// HeldOutSplit carries a train/test split for the Recall@N protocol.
type HeldOutSplit struct {
	Train *Dataset
	Test  []Rating // the held-out long-tail, high-score ratings
}

// SplitLongTailTest implements the §5.2.1 protocol: randomly select
// numTest ratings whose score is at least minScore and whose item lies in
// the tailShare long tail, hold them out as the test set, and train on the
// rest. Users are kept in the training set even if the held-out rating was
// their only one only when they have other ratings; otherwise the candidate
// is skipped (a user with no training ratings cannot be queried).
func (d *Dataset) SplitLongTailTest(rng *rand.Rand, numTest int, minScore, tailShare float64) (*HeldOutSplit, error) {
	if numTest <= 0 {
		return nil, fmt.Errorf("dataset: numTest must be positive, got %d", numTest)
	}
	tail := d.LongTailItems(tailShare)
	cands := make([]int, 0, len(d.ratings))
	for k, r := range d.ratings {
		if r.score < minScore {
			continue
		}
		if _, niche := tail[int(r.item)]; !niche {
			continue
		}
		if d.byUser.degree(int(r.user)) < 2 {
			continue // would leave the user with no training signal
		}
		cands = append(cands, k)
	}
	if len(cands) < numTest {
		return nil, fmt.Errorf("dataset: only %d eligible long-tail test ratings, need %d", len(cands), numTest)
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	drop := make(map[int]struct{}, numTest)
	test := make([]Rating, 0, numTest)
	perUserDrops := make(map[int]int)
	for _, k := range cands {
		if len(test) == numTest {
			break
		}
		r := d.ratings[k].export()
		// Keep at least one training rating per user.
		if perUserDrops[r.User]+1 >= d.byUser.degree(r.User) {
			continue
		}
		drop[k] = struct{}{}
		perUserDrops[r.User]++
		test = append(test, r)
	}
	if len(test) < numTest {
		return nil, fmt.Errorf("dataset: could only hold out %d ratings, need %d", len(test), numTest)
	}
	train, err := d.RemoveRatings(drop)
	if err != nil {
		return nil, err
	}
	return &HeldOutSplit{Train: train, Test: test}, nil
}

// KCore iteratively removes users with fewer than minUserDegree ratings
// and items with fewer than minItemDegree ratings until both constraints
// hold simultaneously — the standard preprocessing behind corpora like
// MovieLens 1M ("users rated 20+ movies"). User and item indices are
// preserved (the universe does not shrink); only ratings are dropped.
// Returns an error if nothing survives.
func (d *Dataset) KCore(minUserDegree, minItemDegree int) (*Dataset, error) {
	if minUserDegree < 0 || minItemDegree < 0 {
		return nil, fmt.Errorf("dataset: negative k-core thresholds (%d, %d)", minUserDegree, minItemDegree)
	}
	alive := make([]bool, len(d.ratings))
	for i := range alive {
		alive[i] = true
	}
	userDeg := make([]int, d.numUsers)
	itemDeg := make([]int, d.numItems)
	for u := range userDeg {
		userDeg[u] = d.byUser.degree(u)
	}
	for i := range itemDeg {
		itemDeg[i] = d.byItem.degree(i)
	}
	for changed := true; changed; {
		changed = false
		for k, r := range d.ratings {
			if !alive[k] {
				continue
			}
			// A rating dies when either endpoint is below threshold (a
			// zero-degree endpoint trivially satisfies "below" only if the
			// threshold is positive).
			if (userDeg[r.user] < minUserDegree && minUserDegree > 0) ||
				(itemDeg[r.item] < minItemDegree && minItemDegree > 0) {
				alive[k] = false
				userDeg[r.user]--
				itemDeg[r.item]--
				changed = true
			}
		}
	}
	kept := make([]Rating, 0, len(d.ratings))
	for k, r := range d.ratings {
		if alive[k] {
			kept = append(kept, r.export())
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("dataset: k-core (%d, %d) removed every rating", minUserDegree, minItemDegree)
	}
	return New(d.numUsers, d.numItems, kept)
}

// SampleUsers picks n distinct users that have at least minDegree training
// ratings, for the §5.2.2–§5.2.4 test-user panels.
func (d *Dataset) SampleUsers(rng *rand.Rand, n, minDegree int) ([]int, error) {
	elig := make([]int, 0, d.numUsers)
	for u := 0; u < d.numUsers; u++ {
		if d.byUser.degree(u) >= minDegree {
			elig = append(elig, u)
		}
	}
	if len(elig) < n {
		return nil, fmt.Errorf("dataset: only %d users with degree >= %d, need %d", len(elig), minDegree, n)
	}
	rng.Shuffle(len(elig), func(i, j int) { elig[i], elig[j] = elig[j], elig[i] })
	out := make([]int, n)
	copy(out, elig[:n])
	sort.Ints(out)
	return out, nil
}
