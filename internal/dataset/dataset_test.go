package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func tinyRatings() []Rating {
	return []Rating{
		{0, 0, 5}, {0, 1, 3},
		{1, 0, 4}, {1, 2, 5},
		{2, 0, 5}, {2, 1, 2}, {2, 3, 5},
	}
}

func tinyDataset(t testing.TB) *Dataset {
	t.Helper()
	d, err := New(3, 5, tinyRatings())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		nu, ni  int
		ratings []Rating
	}{
		{"zero users", 0, 5, nil},
		{"neg items", 3, -1, nil},
		{"user oob", 2, 2, []Rating{{2, 0, 5}}},
		{"item oob", 2, 2, []Rating{{0, 2, 5}}},
		{"zero score", 2, 2, []Rating{{0, 0, 0}}},
		{"negative score", 2, 2, []Rating{{0, 0, -1}}},
		{"duplicate", 2, 2, []Rating{{0, 0, 5}, {0, 0, 4}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.nu, tc.ni, tc.ratings); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestNewReportsFirstErrorInInputOrder pins which error New returns when
// a rating slice has several faults: the first in input order, a
// duplicate counting at its second occurrence.
func TestNewReportsFirstErrorInInputOrder(t *testing.T) {
	cases := []struct {
		name    string
		ratings []Rating
		want    string // "" for no error
	}{
		{"duplicate before a bad score", []Rating{{0, 0, 5}, {1, 1, 2}, {0, 0, 4}, {1, 2, 0}},
			"dataset: duplicate rating (user 0, item 0)"},
		{"duplicate before an out-of-range user", []Rating{{0, 0, 5}, {0, 0, 4}, {7, 0, 1}},
			"dataset: duplicate rating (user 0, item 0)"},
		{"duplicate after a bad score", []Rating{{0, 0, 5}, {1, 1, 0}, {0, 0, 4}},
			"dataset: rating 1 score 0 must be positive"},
		{"duplicate after an out-of-range item", []Rating{{0, 0, 5}, {0, 9, 1}, {0, 0, 3}},
			"dataset: rating 1 item 9 out of range [0,3)"},
		{"earliest duplicate is the later user's", []Rating{{1, 1, 1}, {0, 0, 1}, {1, 1, 2}, {0, 0, 2}},
			"dataset: duplicate rating (user 1, item 1)"},
		{"earliest duplicate is the earlier user's", []Rating{{0, 0, 1}, {1, 1, 1}, {0, 0, 2}, {1, 1, 2}},
			"dataset: duplicate rating (user 0, item 0)"},
		{"a repeat is reported, not its first occurrence", []Rating{{0, 2, 1}, {0, 1, 1}, {0, 2, 3}},
			"dataset: duplicate rating (user 0, item 2)"},
		{"NaN score", []Rating{{0, 0, 5}, {1, 1, math.NaN()}},
			"dataset: rating 1 score NaN must be finite"},
		{"+Inf score", []Rating{{0, 0, 5}, {1, 1, math.Inf(1)}},
			"dataset: rating 1 score +Inf must be finite"},
		{"-Inf score", []Rating{{0, 0, 5}, {1, 1, math.Inf(-1)}},
			"dataset: rating 1 score -Inf must be positive"},
		{"duplicate before a NaN score", []Rating{{2, 2, 5}, {2, 2, 1}, {0, 0, math.NaN()}},
			"dataset: duplicate rating (user 2, item 2)"},
		{"duplicate after a +Inf score", []Rating{{2, 2, 5}, {0, 0, math.Inf(1)}, {2, 2, 1}},
			"dataset: rating 1 score +Inf must be finite"},
		{"one item rated by every user", []Rating{{0, 1, 1}, {1, 1, 1}, {2, 1, 1}, {0, 0, 1}}, ""},
	}
	for _, tc := range cases {
		_, err := New(3, 3, tc.ratings)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, got, tc.want)
		}
	}
}

// referenceNewError is New's validation as a single pass with a map of
// the pairs seen so far: the error New must return for the same input.
func referenceNewError(numUsers, numItems int, ratings []Rating) string {
	seen := make(map[[2]int]struct{}, len(ratings))
	for k, r := range ratings {
		if r.User < 0 || r.User >= numUsers {
			return fmt.Sprintf("dataset: rating %d user %d out of range [0,%d)", k, r.User, numUsers)
		}
		if r.Item < 0 || r.Item >= numItems {
			return fmt.Sprintf("dataset: rating %d item %d out of range [0,%d)", k, r.Item, numItems)
		}
		if r.Score <= 0 {
			return fmt.Sprintf("dataset: rating %d score %v must be positive", k, r.Score)
		}
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 1) {
			return fmt.Sprintf("dataset: rating %d score %v must be finite", k, r.Score)
		}
		key := [2]int{r.User, r.Item}
		if _, dup := seen[key]; dup {
			return fmt.Sprintf("dataset: duplicate rating (user %d, item %d)", r.User, r.Item)
		}
		seen[key] = struct{}{}
	}
	return ""
}

func TestQuickNewErrorMatchesReference(t *testing.T) {
	f := func(raw []uint8) bool {
		var ratings []Rating
		for k := 0; k+2 < len(raw); k += 3 {
			// Mostly in range, sometimes one past the edge or non-positive.
			ratings = append(ratings, Rating{User: int(raw[k]) % 5, Item: int(raw[k+1]) % 7, Score: float64(int(raw[k+2])%40) - 1})
		}
		got := ""
		if _, err := New(4, 6, ratings); err != nil {
			got = err.Error()
		}
		return got == referenceNewError(4, 6, ratings)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBasicAccessors(t *testing.T) {
	d := tinyDataset(t)
	if d.NumUsers() != 3 || d.NumItems() != 5 || d.NumRatings() != 7 {
		t.Fatalf("sizes %d/%d/%d", d.NumUsers(), d.NumItems(), d.NumRatings())
	}
	if math.Abs(d.Density()-7.0/15) > 1e-12 {
		t.Fatalf("density %v", d.Density())
	}
	ur := d.UserRatings(2)
	if len(ur) != 3 {
		t.Fatalf("user 2 ratings %d", len(ur))
	}
	set := d.UserItemSet(0)
	if len(set) != 2 {
		t.Fatalf("user 0 item set %v", set)
	}
	if _, ok := set[1]; !ok {
		t.Fatal("item 1 missing from user 0 set")
	}
	if d.UserDegree(1) != 2 {
		t.Fatalf("degree %d", d.UserDegree(1))
	}
	ir := d.ItemRatings(0)
	if len(ir) != 3 {
		t.Fatalf("item 0 ratings %d", len(ir))
	}
	if !d.HasRating(0, 1) || d.HasRating(0, 4) {
		t.Fatal("HasRating wrong")
	}
	if s, ok := d.Score(2, 3); !ok || s != 5 {
		t.Fatalf("Score(2,3) = %v,%v", s, ok)
	}
	if _, ok := d.Score(0, 4); ok {
		t.Fatal("phantom score")
	}
}

func TestItemPopularity(t *testing.T) {
	d := tinyDataset(t)
	want := []int{3, 2, 1, 1, 0}
	for i, p := range d.ItemPopularity() {
		if p != want[i] {
			t.Fatalf("pop[%d] = %d, want %d", i, p, want[i])
		}
	}
}

func TestGraphConversion(t *testing.T) {
	d := tinyDataset(t)
	g := d.Graph()
	if g.NumUsers() != 3 || g.NumItems() != 5 {
		t.Fatal("graph sizes wrong")
	}
	if g.NumEdges() != 7 {
		t.Fatalf("edges %d", g.NumEdges())
	}
	if g.Weight(g.UserNode(2), g.ItemNode(3)) != 5 {
		t.Fatal("edge weight wrong")
	}
}

func TestLongTailItems(t *testing.T) {
	// Popularities: item0=3, item1=2, item2=1, item3=1, item4=0.
	// Total ratings 7; 20% budget = 1.4. Ascending popularity order:
	// item4 (0), then item2 (1) [acc 0 < 1.4 -> add, acc 1], then
	// item3 (1) [acc 1 < 1.4 -> add, acc 2 >= 1.4 stop].
	d := tinyDataset(t)
	tail := d.LongTailItems(0.2)
	for _, want := range []int{4, 2, 3} {
		if _, ok := tail[want]; !ok {
			t.Fatalf("item %d missing from tail %v", want, tail)
		}
	}
	if _, ok := tail[0]; ok {
		t.Fatal("head item 0 in tail")
	}
	if len(tail) != 3 {
		t.Fatalf("tail size %d", len(tail))
	}
}

func TestLongTailShareZeroAndOne(t *testing.T) {
	d := tinyDataset(t)
	// Budget 0: the loop exits immediately, so the tail is empty even for
	// zero-popularity items.
	if tail := d.LongTailItems(0); len(tail) != 0 {
		t.Fatalf("tailShare=0 gave %v", tail)
	}
	if tail := d.LongTailItems(1); len(tail) != d.NumItems() {
		t.Fatalf("tailShare=1 kept only %d items", len(tail))
	}
}

func TestSummarize(t *testing.T) {
	d := tinyDataset(t)
	s := d.Summarize()
	if s.NumRatings != 7 || s.MaxUserDegree != 3 || s.MinUserDegree != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxItemDegree != 3 || s.MinItemDegree != 0 {
		t.Fatalf("item degrees %+v", s)
	}
	wantMean := (5.0 + 3 + 4 + 5 + 5 + 2 + 5) / 7
	if math.Abs(s.MeanScore-wantMean) > 1e-12 {
		t.Fatalf("mean %v", s.MeanScore)
	}
	if s.TailItemFraction <= 0 || s.TailItemFraction > 1 {
		t.Fatalf("tail fraction %v", s.TailItemFraction)
	}
}

func TestRemoveRatings(t *testing.T) {
	d := tinyDataset(t)
	d2, err := d.RemoveRatings(map[int]struct{}{0: {}, 6: {}})
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumRatings() != 5 {
		t.Fatalf("ratings after removal %d", d2.NumRatings())
	}
	if d2.HasRating(0, 0) {
		t.Fatal("removed rating still present")
	}
	if !d2.HasRating(0, 1) {
		t.Fatal("kept rating lost")
	}
	// Original untouched.
	if d.NumRatings() != 7 {
		t.Fatal("original dataset mutated")
	}
}

func TestSplitLongTailTest(t *testing.T) {
	// Build a corpus with clear head/tail structure and plenty of 5-star
	// tail ratings to hold out.
	rng := rand.New(rand.NewSource(1))
	var ratings []Rating
	const nu, ni = 60, 80
	for u := 0; u < nu; u++ {
		// Everyone rates head items 0..9.
		for i := 0; i < 10; i++ {
			ratings = append(ratings, Rating{u, i, 4})
		}
		// Each user rates two distinct tail items with 5 stars.
		a := 10 + (u*2)%70
		b := 10 + (u*2+1)%70
		ratings = append(ratings, Rating{u, a, 5}, Rating{u, b, 5})
	}
	d, err := New(nu, ni, ratings)
	if err != nil {
		t.Fatal(err)
	}
	split, err := d.SplitLongTailTest(rng, 30, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Test) != 30 {
		t.Fatalf("test size %d", len(split.Test))
	}
	if split.Train.NumRatings() != d.NumRatings()-30 {
		t.Fatalf("train size %d", split.Train.NumRatings())
	}
	tail := d.LongTailItems(0.2)
	for _, r := range split.Test {
		if r.Score < 5 {
			t.Fatalf("held-out rating has score %v", r.Score)
		}
		if _, niche := tail[r.Item]; !niche {
			t.Fatalf("held-out item %d not in long tail", r.Item)
		}
		if split.Train.HasRating(r.User, r.Item) {
			t.Fatal("held-out rating leaked into training set")
		}
		if split.Train.UserDegree(r.User) == 0 {
			t.Fatal("user left with no training ratings")
		}
	}
}

func TestSplitLongTailTestInsufficient(t *testing.T) {
	d := tinyDataset(t)
	if _, err := d.SplitLongTailTest(rand.New(rand.NewSource(1)), 100, 5, 0.2); err == nil {
		t.Fatal("impossible split accepted")
	}
}

func TestSampleUsers(t *testing.T) {
	d := tinyDataset(t)
	users, err := d.SampleUsers(rand.New(rand.NewSource(2)), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 2 {
		t.Fatalf("sampled %d", len(users))
	}
	seen := map[int]bool{}
	for _, u := range users {
		if seen[u] {
			t.Fatal("duplicate user")
		}
		seen[u] = true
		if d.UserDegree(u) < 2 {
			t.Fatal("under-degree user sampled")
		}
	}
	if _, err := d.SampleUsers(rand.New(rand.NewSource(3)), 5, 2); err == nil {
		t.Fatal("oversized sample accepted")
	}
}

func TestKCoreBasic(t *testing.T) {
	// User 2 has a single rating on item 3; item 3 has a single rater.
	// A (2,2)-core must drop that rating and keep the dense block.
	d, err := New(3, 4, []Rating{
		{0, 0, 5}, {0, 1, 4},
		{1, 0, 4}, {1, 1, 3},
		{2, 3, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	core, err := d.KCore(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if core.NumRatings() != 4 {
		t.Fatalf("core ratings %d, want 4", core.NumRatings())
	}
	if core.HasRating(2, 3) {
		t.Fatal("weak rating survived")
	}
	// Universe sizes preserved.
	if core.NumUsers() != 3 || core.NumItems() != 4 {
		t.Fatal("k-core shrank the universe")
	}
}

func TestKCoreCascades(t *testing.T) {
	// Chain: removing the weak user drops an item below threshold, which
	// must cascade and drop a second user's rating.
	d, err := New(3, 3, []Rating{
		{0, 0, 5},            // user 0: degree 1 (weak)
		{1, 0, 4}, {1, 1, 3}, // user 1 relies on item 0 staying alive
		{2, 1, 4}, {2, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// user0-item0 dies (user degree 1) → item 0 degree drops to 1 → the
	// user1-item0 rating dies → user 1 degree 1 → user1-item1 dies →
	// item 1 degree 1 → user2-item1 dies → user 2 degree 1 → everything
	// unravels, which KCore reports as an error.
	if _, err := d.KCore(2, 2); err == nil {
		t.Fatal("expected full unravel error")
	}
}

func TestKCoreZeroThresholdIsIdentity(t *testing.T) {
	d := tinyDataset(t)
	core, err := d.KCore(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if core.NumRatings() != d.NumRatings() {
		t.Fatal("0-core dropped ratings")
	}
}

func TestKCoreInvariantHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ratings []Rating
	for u := 0; u < 40; u++ {
		for _, i := range rng.Perm(30)[:1+rng.Intn(8)] {
			ratings = append(ratings, Rating{u, i, float64(1 + rng.Intn(5))})
		}
	}
	d, err := New(40, 30, ratings)
	if err != nil {
		t.Fatal(err)
	}
	core, err := d.KCore(3, 3)
	if err != nil {
		t.Skip("corpus fully unraveled")
	}
	for u := 0; u < core.NumUsers(); u++ {
		if deg := core.UserDegree(u); deg != 0 && deg < 3 {
			t.Fatalf("user %d degree %d violates 3-core", u, deg)
		}
	}
	for i, p := range core.ItemPopularity() {
		if p != 0 && p < 3 {
			t.Fatalf("item %d popularity %d violates 3-core", i, p)
		}
	}
}

func TestKCoreValidation(t *testing.T) {
	d := tinyDataset(t)
	if _, err := d.KCore(-1, 0); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := d.KCore(100, 100); err == nil {
		t.Fatal("impossible core accepted")
	}
}

func TestLoadDelimitedAndMovieLens(t *testing.T) {
	in := strings.NewReader("# comment\n1::10::5::978300760\n1::20::3::978302109\n2::10::4::978301968\n\n")
	ld, err := LoadMovieLens(in)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Data.NumUsers() != 2 || ld.Data.NumItems() != 2 || ld.Data.NumRatings() != 3 {
		t.Fatalf("loaded %d/%d/%d", ld.Data.NumUsers(), ld.Data.NumItems(), ld.Data.NumRatings())
	}
	u1, ok := ld.Users.Lookup("1")
	if !ok {
		t.Fatal("user 1 not interned")
	}
	i20, ok := ld.Items.Lookup("20")
	if !ok {
		t.Fatal("item 20 not interned")
	}
	if s, ok := ld.Data.Score(u1, i20); !ok || s != 3 {
		t.Fatalf("score(1,20) = %v,%v", s, ok)
	}
	if ld.Users.Name(u1) != "1" {
		t.Fatal("reverse mapping broken")
	}
}

func TestLoadDuplicateKeepsLast(t *testing.T) {
	in := strings.NewReader("a,x,3\na,x,5\n")
	ld, err := LoadCSV(in)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Data.NumRatings() != 1 {
		t.Fatalf("ratings %d", ld.Data.NumRatings())
	}
	if s, _ := ld.Data.Score(0, 0); s != 5 {
		t.Fatalf("duplicate did not keep last score: %v", s)
	}
}

func TestLoadErrors(t *testing.T) {
	for name, input := range map[string]string{
		"too few fields": "a,b\n",
		"bad score":      "a,b,xyz\n",
		"zero score":     "a,b,0\n",
		"empty":          "",
	} {
		if _, err := LoadCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := tinyDataset(t)
	var sb strings.Builder
	if err := WriteTSV(&sb, d); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadTSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if ld.Data.NumRatings() != d.NumRatings() {
		t.Fatalf("round trip ratings %d vs %d", ld.Data.NumRatings(), d.NumRatings())
	}
	// Same scores under identity interning (dense ids serialize as strings).
	for _, r := range d.Ratings() {
		u, _ := ld.Users.Lookup(itoa(r.User))
		i, _ := ld.Items.Lookup(itoa(r.Item))
		if s, ok := ld.Data.Score(u, i); !ok || s != r.Score {
			t.Fatalf("round trip lost rating %+v", r)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := []byte{}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestQuickTailGrowsWithShare(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nu, ni := 3+r.Intn(10), 3+r.Intn(20)
		var ratings []Rating
		for u := 0; u < nu; u++ {
			for _, i := range r.Perm(ni)[:1+r.Intn(ni)] {
				ratings = append(ratings, Rating{u, i, float64(1 + r.Intn(5))})
			}
		}
		d, err := New(nu, ni, ratings)
		if err != nil {
			return false
		}
		small := d.LongTailItems(0.1)
		large := d.LongTailItems(0.5)
		if len(small) > len(large) {
			return false
		}
		for i := range small {
			if _, ok := large[i]; !ok {
				return false // tail must be nested
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestDatasetFootprint bounds what New retains. On a fixed corpus of
// 100k distinct ratings over 2,000 users × 1,000 items, the 16-byte
// records and the two int32 CSR indices come to ≈ 24.2 live bytes per
// rating; the old layout (24-byte Ratings, [][]int indices grown by
// append) retained 45.4. Its second case, the size guard, is
// TestNewSizeGuardAllocs.
func TestDatasetFootprint(t *testing.T) {
	const users, items, n = 2000, 1000, 100_000
	rng := rand.New(rand.NewSource(1))
	seen := make(map[[2]int]struct{}, n)
	ratings := make([]Rating, 0, n)
	for len(ratings) < n {
		u, i := rng.Intn(users), rng.Intn(items)
		if _, dup := seen[[2]int{u, i}]; !dup {
			seen[[2]int{u, i}] = struct{}{}
			ratings = append(ratings, Rating{User: u, Item: i, Score: float64(1 + rng.Intn(5))})
		}
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	d, err := New(users, items, ratings)
	if err != nil {
		t.Fatal(err)
	}
	perRating := float64(live()-before) / n
	runtime.KeepAlive(d)
	runtime.KeepAlive(ratings)
	t.Logf("%.1f live bytes per rating", perRating)
	if perRating > 26 {
		t.Errorf("New retains %.1f bytes per rating, want <= 26", perRating)
	}
}
