package dataset

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refDataset is Dataset as it was before the compact layout: 24-byte
// Ratings and [][]int indices grown by append. It is the oracle
// FuzzDatasetNew holds New and every accessor to. Only the NaN/+Inf rule
// was added; everything else is the old code, renamed.
type refDataset struct {
	numUsers, numItems int
	ratings            []Rating
	byUser             [][]int // rating indices per user
	byItem             [][]int // rating indices per item
}

// refNew validates and indexes a rating slice. Scores must be positive
// (the bipartite graph requires positive edge weights). Duplicate
// (user, item) pairs are rejected: a rating is a single edge. The error
// names the first fault in input order, a duplicate at its second
// occurrence.
func refNew(numUsers, numItems int, ratings []Rating) (*refDataset, error) {
	if numUsers <= 0 || numItems <= 0 {
		return nil, fmt.Errorf("dataset: need positive universe sizes, got %d users, %d items", numUsers, numItems)
	}
	d := &refDataset{
		numUsers: numUsers,
		numItems: numItems,
		ratings:  make([]Rating, len(ratings)),
		byUser:   make([][]int, numUsers),
		byItem:   make([][]int, numItems),
	}
	copy(d.ratings, ratings)
	for k, r := range d.ratings {
		var err error
		switch {
		case r.User < 0 || r.User >= numUsers:
			err = fmt.Errorf("dataset: rating %d user %d out of range [0,%d)", k, r.User, numUsers)
		case r.Item < 0 || r.Item >= numItems:
			err = fmt.Errorf("dataset: rating %d item %d out of range [0,%d)", k, r.Item, numItems)
		case r.Score <= 0:
			err = fmt.Errorf("dataset: rating %d score %v must be positive", k, r.Score)
		case math.IsNaN(r.Score) || math.IsInf(r.Score, 1):
			err = fmt.Errorf("dataset: rating %d score %v must be finite", k, r.Score)
		}
		if err != nil {
			// A duplicate among the ratings indexed so far comes first.
			return nil, cmp.Or(d.duplicate(), err)
		}
		d.byUser[r.User] = append(d.byUser[r.User], k)
		d.byItem[r.Item] = append(d.byItem[r.Item], k)
	}
	if err := d.duplicate(); err != nil {
		return nil, err
	}
	return d, nil
}

// duplicate reports the earliest indexed rating that repeats an earlier
// (user, item) pair: the first repeat within some user's ratings, found by
// stamping each item with the user whose ratings are being walked.
func (d *refDataset) duplicate() error {
	dup := len(d.ratings)
	stamp := make([]int, d.numItems)
	for u, idx := range d.byUser {
		for _, k := range idx {
			if i := d.ratings[k].Item; stamp[i] != u+1 {
				stamp[i] = u + 1
			} else {
				dup = min(dup, k)
				break
			}
		}
	}
	if dup == len(d.ratings) {
		return nil
	}
	return fmt.Errorf("dataset: duplicate rating (user %d, item %d)", d.ratings[dup].User, d.ratings[dup].Item)
}

// NumUsers returns the user-universe size.
func (d *refDataset) NumUsers() int { return d.numUsers }

// NumItems returns the item-universe size.
func (d *refDataset) NumItems() int { return d.numItems }

// NumRatings returns the rating count.
func (d *refDataset) NumRatings() int { return len(d.ratings) }

// Rating returns the k-th rating.
func (d *refDataset) Rating(k int) Rating { return d.ratings[k] }

// Ratings returns a copy of all ratings.
func (d *refDataset) Ratings() []Rating {
	out := make([]Rating, len(d.ratings))
	copy(out, d.ratings)
	return out
}

// Density returns nnz / (users × items).
func (d *refDataset) Density() float64 {
	return float64(len(d.ratings)) / (float64(d.numUsers) * float64(d.numItems))
}

// UserRatings returns user u's ratings (freshly allocated).
func (d *refDataset) UserRatings(u int) []Rating {
	idx := d.byUser[u]
	out := make([]Rating, len(idx))
	for k, i := range idx {
		out[k] = d.ratings[i]
	}
	return out
}

// UserItemSet returns the set of items rated by u (the paper's S_u).
func (d *refDataset) UserItemSet(u int) map[int]struct{} {
	idx := d.byUser[u]
	out := make(map[int]struct{}, len(idx))
	for _, i := range idx {
		out[d.ratings[i].Item] = struct{}{}
	}
	return out
}

// UserDegree returns how many items user u rated.
func (d *refDataset) UserDegree(u int) int { return len(d.byUser[u]) }

// ItemRatings returns item i's ratings (freshly allocated).
func (d *refDataset) ItemRatings(i int) []Rating {
	idx := d.byItem[i]
	out := make([]Rating, len(idx))
	for k, j := range idx {
		out[k] = d.ratings[j]
	}
	return out
}

// ItemPopularity returns, per item, its rating frequency — the paper's
// popularity measure (§5.2.2).
func (d *refDataset) ItemPopularity() []int {
	out := make([]int, d.numItems)
	for i := range out {
		out[i] = len(d.byItem[i])
	}
	return out
}

// HasRating reports whether (u, i) is present.
func (d *refDataset) HasRating(u, i int) bool {
	for _, k := range d.byUser[u] {
		if d.ratings[k].Item == i {
			return true
		}
	}
	return false
}

// Score returns the rating score of (u, i) and whether it exists.
func (d *refDataset) Score(u, i int) (float64, bool) {
	for _, k := range d.byUser[u] {
		if d.ratings[k].Item == i {
			return d.ratings[k].Score, true
		}
	}
	return 0, false
}

// LongTailItems returns the set of long-tail ("niche") items per §5.1.2:
// the least-popular items that in aggregate generate tailShare of all
// ratings (the paper uses tailShare = 0.20, the 80/20 rule). Ties in
// popularity are broken by item index for determinism. Items with zero
// ratings are part of the tail.
func (d *refDataset) LongTailItems(tailShare float64) map[int]struct{} {
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

// Summarize computes corpus statistics, including the fraction of items
// that fall in the 20%-of-ratings long tail (the paper reports ~66% for
// MovieLens and ~73% for Douban).
func (d *refDataset) Summarize() Stats {
	s := Stats{
		NumUsers:      d.numUsers,
		NumItems:      d.numItems,
		NumRatings:    len(d.ratings),
		Density:       d.Density(),
		MinUserDegree: int(^uint(0) >> 1),
		MinItemDegree: int(^uint(0) >> 1),
	}
	for u := 0; u < d.numUsers; u++ {
		deg := len(d.byUser[u])
		if deg < s.MinUserDegree {
			s.MinUserDegree = deg
		}
		if deg > s.MaxUserDegree {
			s.MaxUserDegree = deg
		}
	}
	for i := 0; i < d.numItems; i++ {
		deg := len(d.byItem[i])
		if deg < s.MinItemDegree {
			s.MinItemDegree = deg
		}
		if deg > s.MaxItemDegree {
			s.MaxItemDegree = deg
		}
	}
	total := 0.0
	for _, r := range d.ratings {
		total += r.Score
	}
	if len(d.ratings) > 0 {
		s.MeanScore = total / float64(len(d.ratings))
	}
	s.TailItemFraction = float64(len(d.LongTailItems(0.2))) / float64(d.numItems)
	return s
}

// RemoveRatings derives a new dataset without the ratings at the given
// indices (indices into the original rating order).
func (d *refDataset) RemoveRatings(drop map[int]struct{}) (*refDataset, error) {
	kept := make([]Rating, 0, len(d.ratings)-len(drop))
	for k, r := range d.ratings {
		if _, gone := drop[k]; !gone {
			kept = append(kept, r)
		}
	}
	return refNew(d.numUsers, d.numItems, kept)
}

// refHeldOutSplit is HeldOutSplit over a refDataset.
type refHeldOutSplit struct {
	Train *refDataset
	Test  []Rating
}

// SplitLongTailTest implements the §5.2.1 protocol: randomly select
// numTest ratings whose score is at least minScore and whose item lies in
// the tailShare long tail, hold them out as the test set, and train on the
// rest. Users are kept in the training set even if the held-out rating was
// their only one only when they have other ratings; otherwise the candidate
// is skipped (a user with no training ratings cannot be queried).
func (d *refDataset) SplitLongTailTest(rng *rand.Rand, numTest int, minScore, tailShare float64) (*refHeldOutSplit, error) {
	if numTest <= 0 {
		return nil, fmt.Errorf("dataset: numTest must be positive, got %d", numTest)
	}
	tail := d.LongTailItems(tailShare)
	cands := make([]int, 0, len(d.ratings))
	for k, r := range d.ratings {
		if r.Score < minScore {
			continue
		}
		if _, niche := tail[r.Item]; !niche {
			continue
		}
		if len(d.byUser[r.User]) < 2 {
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
		r := d.ratings[k]
		// Keep at least one training rating per user.
		if perUserDrops[r.User]+1 >= len(d.byUser[r.User]) {
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
	return &refHeldOutSplit{Train: train, Test: test}, nil
}

// KCore iteratively removes users with fewer than minUserDegree ratings
// and items with fewer than minItemDegree ratings until both constraints
// hold simultaneously — the standard preprocessing behind corpora like
// MovieLens 1M ("users rated 20+ movies"). User and item indices are
// preserved (the universe does not shrink); only ratings are dropped.
// Returns an error if nothing survives.
func (d *refDataset) KCore(minUserDegree, minItemDegree int) (*refDataset, error) {
	if minUserDegree < 0 || minItemDegree < 0 {
		return nil, fmt.Errorf("dataset: negative k-core thresholds (%d, %d)", minUserDegree, minItemDegree)
	}
	alive := make([]bool, len(d.ratings))
	for i := range alive {
		alive[i] = true
	}
	userDeg := make([]int, d.numUsers)
	itemDeg := make([]int, d.numItems)
	for _, r := range d.ratings {
		userDeg[r.User]++
		itemDeg[r.Item]++
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
			if (userDeg[r.User] < minUserDegree && minUserDegree > 0) ||
				(itemDeg[r.Item] < minItemDegree && minItemDegree > 0) {
				alive[k] = false
				userDeg[r.User]--
				itemDeg[r.Item]--
				changed = true
			}
		}
	}
	kept := make([]Rating, 0, len(d.ratings))
	for k, r := range d.ratings {
		if alive[k] {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("dataset: k-core (%d, %d) removed every rating", minUserDegree, minItemDegree)
	}
	return refNew(d.numUsers, d.numItems, kept)
}

// SampleUsers picks n distinct users that have at least minDegree training
// ratings, for the §5.2.2–§5.2.4 test-user panels.
func (d *refDataset) SampleUsers(rng *rand.Rand, n, minDegree int) ([]int, error) {
	elig := make([]int, 0, d.numUsers)
	for u := 0; u < d.numUsers; u++ {
		if len(d.byUser[u]) >= minDegree {
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

// FuzzDatasetNew holds New to refNew. Bytes decode into a universe of at
// most 64 users and 64 items and a rating list with out-of-range ids,
// non-positive, NaN and ±Inf scores, and duplicates before and after a
// fault. Both must return the same error text; on success every accessor,
// and every dataset derived from it, must answer alike.
func FuzzDatasetNew(f *testing.F) {
	// Bytes: users-1, items-1, four parameters, then (op, user, item)
	// triples; op%32 picks a fault (0–4), a repeat (5–9) or a plain rating.
	f.Add([]byte{})
	f.Add([]byte{2, 3, 1, 2, 3, 4, 10, 0, 0, 42, 0, 1, 75, 1, 0, 107, 2, 3, 140, 0, 2, 170, 1, 1, 202, 2, 0, 234, 1, 3})
	f.Add([]byte{2, 2, 0, 0, 0, 0, 10, 0, 0, 10, 1, 1, 11, 0, 0, 11, 1, 1})
	f.Add([]byte{2, 2, 0, 0, 0, 0, 10, 0, 0, 42, 1, 1, 3, 2, 2})
	f.Add([]byte{2, 2, 0, 0, 0, 0, 10, 0, 0, 4, 1, 1})
	f.Add([]byte{2, 2, 0, 0, 0, 0, 10, 0, 0, 5, 0, 0, 4, 1, 1})
	f.Add([]byte{63, 63, 1, 1, 1, 1, 10, 63, 63, 42, 0, 0, 74, 63, 0, 106, 0, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		nu, ni := 1+next()%64, 1+next()%64
		a, b, c, e := next(), next(), next(), next()
		var ratings []Rating
		for len(data) >= 3 {
			op, u, i := next(), next(), next()
			r := Rating{User: u % nu, Item: i % ni, Score: float64(1+op/32) / 2}
			switch op % 32 {
			case 0:
				r.User = []int{-1, nu, nu + u}[i%3]
			case 1:
				r.Item = []int{-1, ni, ni + i}[u%3]
			case 2:
				r.Score = []float64{0, -1, math.Inf(-1)}[u%3]
			case 3:
				r.Score = math.NaN()
			case 4:
				r.Score = math.Inf(1)
			case 5, 6, 7, 8, 9:
				if len(ratings) > 0 {
					p := ratings[(u<<8|i)%len(ratings)]
					r.User, r.Item = p.User, p.Item
				}
			}
			ratings = append(ratings, r)
		}

		got, err := New(nu, ni, ratings)
		want, werr := refNew(nu, ni, ratings)
		if errText(err) != errText(werr) {
			t.Fatalf("New error %q, reference %q", errText(err), errText(werr))
		}
		if werr != nil {
			return
		}
		sameDataset(t, "New", got, want)

		drop := make(map[int]struct{})
		for k := range ratings {
			if (k+a)%(1+b%4) == 0 {
				drop[k] = struct{}{}
			}
		}
		gotRem, err := got.RemoveRatings(drop)
		wantRem, werr := want.RemoveRatings(drop)
		sameDerived(t, "RemoveRatings", gotRem, err, wantRem, werr)

		gotCore, err := got.KCore(b%4, c%4)
		wantCore, werr := want.KCore(b%4, c%4)
		sameDerived(t, "KCore", gotCore, err, wantCore, werr)

		numTest, minScore, share := 1+c%6, float64(1+a%8)/2, []float64{0.2, 0.5, 1}[e%3]
		gotSplit, err := got.SplitLongTailTest(rand.New(rand.NewSource(int64(e))), numTest, minScore, share)
		wantSplit, werr := want.SplitLongTailTest(rand.New(rand.NewSource(int64(e))), numTest, minScore, share)
		if werr == nil && err == nil {
			if !slices.Equal(gotSplit.Test, wantSplit.Test) {
				t.Fatalf("SplitLongTailTest held out %v, reference %v", gotSplit.Test, wantSplit.Test)
			}
			sameDataset(t, "SplitLongTailTest", gotSplit.Train, wantSplit.Train)
		} else if errText(err) != errText(werr) {
			t.Fatalf("SplitLongTailTest error %q, reference %q", errText(err), errText(werr))
		}

		gotUsers, err := got.SampleUsers(rand.New(rand.NewSource(int64(a))), 1+e%8, c%4)
		wantUsers, werr := want.SampleUsers(rand.New(rand.NewSource(int64(a))), 1+e%8, c%4)
		if errText(err) != errText(werr) || !slices.Equal(gotUsers, wantUsers) {
			t.Fatalf("SampleUsers %v (%v), reference %v (%v)", gotUsers, err, wantUsers, werr)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameDerived checks a derived dataset against the reference's.
func sameDerived(t *testing.T, op string, got *Dataset, err error, want *refDataset, werr error) {
	t.Helper()
	if errText(err) != errText(werr) {
		t.Fatalf("%s error %q, reference %q", op, errText(err), errText(werr))
	}
	if werr == nil {
		sameDataset(t, op, got, want)
	}
}

// sameDataset checks every accessor of got against want.
func sameDataset(t *testing.T, op string, got *Dataset, want *refDataset) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() || got.NumItems() != want.NumItems() ||
		got.NumRatings() != want.NumRatings() || got.Density() != want.Density() {
		t.Fatalf("%s: sizes %d/%d/%d, reference %d/%d/%d", op,
			got.NumUsers(), got.NumItems(), got.NumRatings(), want.NumUsers(), want.NumItems(), want.NumRatings())
	}
	if !slices.Equal(got.Ratings(), want.Ratings()) {
		t.Fatalf("%s: Ratings %v, reference %v", op, got.Ratings(), want.Ratings())
	}
	for k := range want.NumRatings() {
		if got.Rating(k) != want.Rating(k) {
			t.Fatalf("%s: Rating(%d) %v, reference %v", op, k, got.Rating(k), want.Rating(k))
		}
	}
	for u := range want.NumUsers() {
		if !slices.Equal(got.UserRatings(u), want.UserRatings(u)) || got.UserDegree(u) != want.UserDegree(u) ||
			!maps.Equal(got.UserItemSet(u), want.UserItemSet(u)) {
			t.Fatalf("%s: user %d ratings %v, reference %v", op, u, got.UserRatings(u), want.UserRatings(u))
		}
		for i := range want.NumItems() {
			gs, gok := got.Score(u, i)
			ws, wok := want.Score(u, i)
			if got.HasRating(u, i) != want.HasRating(u, i) || gs != ws || gok != wok {
				t.Fatalf("%s: (%d, %d) score %v/%v, reference %v/%v", op, u, i, gs, gok, ws, wok)
			}
		}
	}
	for i := range want.NumItems() {
		if !slices.Equal(got.ItemRatings(i), want.ItemRatings(i)) || got.ItemDegree(i) != len(want.ItemRatings(i)) {
			t.Fatalf("%s: item %d ratings %v, reference %v", op, i, got.ItemRatings(i), want.ItemRatings(i))
		}
	}
	if !slices.Equal(got.ItemPopularity(), want.ItemPopularity()) {
		t.Fatalf("%s: ItemPopularity %v, reference %v", op, got.ItemPopularity(), want.ItemPopularity())
	}
	if got.Summarize() != want.Summarize() {
		t.Fatalf("%s: Summarize %+v, reference %+v", op, got.Summarize(), want.Summarize())
	}
	for _, share := range []float64{0, 0.2, 0.5, 1} {
		if !maps.Equal(got.LongTailItems(share), want.LongTailItems(share)) {
			t.Fatalf("%s: LongTailItems(%v) differ", op, share)
		}
	}
}
