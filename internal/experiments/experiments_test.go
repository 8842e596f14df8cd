package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"longtailrec/internal/eval"
)

// tinyScale keeps the end-to-end experiment tests fast.
func tinyScale() Scale {
	return Scale{TestRatings: 15, Negatives: 60, PanelUsers: 12, Evaluators: 6, MaxN: 20, ListSize: 10}
}

var (
	envOnce sync.Once
	envML   *Env
	envErr  error
)

// sharedEnv builds one MovieLens-like environment for all tests.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envML, envErr = NewEnv("movielens", tinyScale(), 7)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envML
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv("nope", tinyScale(), 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestEnvShape(t *testing.T) {
	env := sharedEnv(t)
	if env.Kind != "movielens" {
		t.Fatalf("kind %q", env.Kind)
	}
	if len(env.Split.Test) != tinyScale().TestRatings {
		t.Fatalf("test size %d", len(env.Split.Test))
	}
	if len(env.Panel) != tinyScale().PanelUsers {
		t.Fatalf("panel size %d", len(env.Panel))
	}
	if env.Split.Train.NumRatings() >= env.World.Data.NumRatings() {
		t.Fatal("nothing held out")
	}
}

func TestFigure2Experiment(t *testing.T) {
	res, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"M4", "M1", "M5", "M6"}
	if len(res.Ranking) != 4 {
		t.Fatalf("ranking %v", res.Ranking)
	}
	for k, w := range wantOrder {
		if res.Ranking[k] != w {
			t.Fatalf("ranking %v, want %v", res.Ranking, wantOrder)
		}
	}
	// Values pinned to our exact solver (constant 1.04 ratio to the paper).
	if math.Abs(res.HittingTimes["M4"]-18.4) > 0.05 {
		t.Fatalf("H(U5|M4) = %v", res.HittingTimes["M4"])
	}
	if !strings.Contains(res.Text, "M4") {
		t.Fatal("text rendering missing M4")
	}
}

func TestTable1Experiment(t *testing.T) {
	env := sharedEnv(t)
	res, err := Table1(env, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Topics) != 2 {
		t.Fatalf("topics %d", len(res.Topics))
	}
	for _, topic := range res.Topics {
		if len(topic) != 5 {
			t.Fatalf("topic size %d", len(topic))
		}
	}
	if res.Purity < 0.5 {
		t.Fatalf("topic purity %v — LDA failed to find genres", res.Purity)
	}
	if !strings.Contains(res.Text, "Topic 1") {
		t.Fatal("text missing topic header")
	}
}

func TestFigure5Experiment(t *testing.T) {
	env := sharedEnv(t)
	res, err := Figure5(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 7 {
		t.Fatalf("algorithms %d", len(res.Results))
	}
	names := map[string]bool{}
	for _, r := range res.Results {
		names[r.Name] = true
		if len(r.Recall) != tinyScale().MaxN {
			t.Fatalf("%s curve length %d", r.Name, len(r.Recall))
		}
		prev := 0.0
		for n, v := range r.Recall {
			if v < prev || v < 0 || v > 1 {
				t.Fatalf("%s recall@%d = %v", r.Name, n+1, v)
			}
			prev = v
		}
	}
	for _, want := range []string{"AC2", "AC1", "AT", "HT", "DPPR", "PureSVD", "LDA"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestListExperiments(t *testing.T) {
	env := sharedEnv(t)
	res, err := ListExperiments(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 7 {
		t.Fatalf("metrics %d", len(res.Metrics))
	}
	byName := map[string]float64{}
	for _, m := range res.Metrics {
		byName[m.Name] = m.MeanPopularity
		if m.Diversity < 0 || m.Diversity > 1 {
			t.Fatalf("%s diversity %v", m.Name, m.Diversity)
		}
	}
	// The Figure 6 headline: the graph algorithms recommend far less
	// popular items than the factor models.
	for _, walk := range []string{"AC2", "AT", "HT"} {
		for _, factor := range []string{"PureSVD", "LDA"} {
			if byName[walk] >= byName[factor] {
				t.Fatalf("%s popularity %v not below %s %v", walk, byName[walk], factor, byName[factor])
			}
		}
	}
	f6 := Figure6Text(res)
	if !strings.Contains(f6, "P@1") {
		t.Fatal("figure 6 text missing positions")
	}
}

func TestTable4Experiment(t *testing.T) {
	env := sharedEnv(t)
	res, err := Table4(env, []int{200, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Whole-graph row must label µ as the catalog size.
	if res.Rows[1].Mu != env.Split.Train.NumItems() {
		t.Fatalf("whole-graph µ label %d", res.Rows[1].Mu)
	}
	for _, row := range res.Rows {
		if row.SecondsPerUser < 0 || row.Diversity < 0 || row.Diversity > 1 {
			t.Fatalf("bad row %+v", row)
		}
	}
}

func TestTable6Experiment(t *testing.T) {
	env := sharedEnv(t)
	res, err := Table6(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("algorithms %d", len(res.Results))
	}
	byName := map[string]float64{}
	for _, r := range res.Results {
		byName[r.Name] = r.Novelty
		if r.Score < 1 || r.Score > 5 {
			t.Fatalf("%s score %v", r.Name, r.Score)
		}
	}
	// The Table 6 headline: AC2's recommendations are far more novel than
	// PureSVD's and LDA's.
	if byName["AC2"] <= byName["PureSVD"] || byName["AC2"] <= byName["LDA"] {
		t.Fatalf("AC2 novelty %v not above PureSVD %v / LDA %v",
			byName["AC2"], byName["PureSVD"], byName["LDA"])
	}
}

func TestSalesDiversityExperiment(t *testing.T) {
	env := sharedEnv(t)
	res, err := SalesDiversityExperiment(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 9 { // 7 paper algorithms + AC3 + MostPopular
		t.Fatalf("algorithms %d", len(res.Results))
	}
	byName := map[string]eval.SalesDiversity{}
	for _, r := range res.Results {
		byName[r.Name] = r
		if r.Gini < 0 || r.Gini > 1 || r.Coverage < 0 || r.Coverage > 1 {
			t.Fatalf("%s out of range: %+v", r.Name, r)
		}
	}
	// MostPopular must concentrate exposure harder than AC2 and reach
	// almost no tail items.
	if byName["MostPopular"].Coverage >= byName["AC2"].Coverage {
		t.Fatalf("MostPopular coverage %v not below AC2 %v",
			byName["MostPopular"].Coverage, byName["AC2"].Coverage)
	}
	if byName["MostPopular"].TailShare >= byName["AC2"].TailShare {
		t.Fatalf("MostPopular tail share %v not below AC2 %v",
			byName["MostPopular"].TailShare, byName["AC2"].TailShare)
	}
}

func TestRankingExperiment(t *testing.T) {
	env := sharedEnv(t)
	res, err := RankingExperiment(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 7 {
		t.Fatalf("algorithms %d", len(res.Results))
	}
	for _, r := range res.Results {
		if r.MRR < 0 || r.MRR > 1 || r.NDCG < 0 || r.NDCG > 1 {
			t.Fatalf("%s out of range: %+v", r.Name, r)
		}
		if r.NDCG+1e-12 < r.MRR {
			t.Fatalf("%s NDCG %v below MRR %v (log2 gain dominates reciprocal)", r.Name, r.NDCG, r.MRR)
		}
	}
}

func TestBeyondAccuracyExperiment(t *testing.T) {
	env := sharedEnv(t)
	res, err := BeyondAccuracyExperiment(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 8 { // 7 paper algorithms + MostPopular
		t.Fatalf("algorithms %d", len(res.Results))
	}
	byName := map[string]eval.BeyondAccuracy{}
	for _, r := range res.Results {
		byName[r.Name] = r
		if r.Novelty < 0 || r.Serendipity < 0 || r.Serendipity > 1 {
			t.Fatalf("%s out of range: %+v", r.Name, r)
		}
		if r.Coverage <= 0 || r.Coverage > 1 {
			t.Fatalf("%s coverage: %+v", r.Name, r)
		}
	}
	// The walk methods must recommend more novel items than the
	// popularity floor — the paper's central claim in one number.
	if byName["AC2"].Novelty <= byName["MostPopular"].Novelty {
		t.Fatalf("AC2 novelty %v not above MostPopular %v",
			byName["AC2"].Novelty, byName["MostPopular"].Novelty)
	}
	if !strings.Contains(res.Text, "novelty(bits)") {
		t.Fatalf("text missing header: %s", res.Text)
	}
}

func TestStratifiedExperiment(t *testing.T) {
	env := sharedEnv(t)
	res, err := StratifiedExperiment(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 7 || len(res.Intervals) != 7 {
		t.Fatalf("shape: %d results, %d intervals", len(res.Results), len(res.Intervals))
	}
	for k, r := range res.Results {
		total := 0
		for _, s := range r.Strata {
			total += s.Cases
		}
		if total != len(env.Split.Test) {
			t.Fatalf("%s: strata cover %d of %d cases", r.Name, total, len(env.Split.Test))
		}
		iv := res.Intervals[k]
		if iv.Lo > iv.Point || iv.Hi < iv.Point {
			t.Fatalf("%s: CI [%v,%v] excludes point %v", r.Name, iv.Lo, iv.Hi, iv.Point)
		}
	}
	if !strings.Contains(res.Text, "95% CI") {
		t.Fatalf("text missing CI column: %s", res.Text)
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 15 {
		t.Fatalf("names %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate name %s", n)
		}
		seen[n] = true
	}
}

func TestRenderTableAlignment(t *testing.T) {
	text := renderTable("T", []string{"a", "long-header"}, [][]string{{"xxxxx", "1"}})
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "== T ==") {
		t.Fatalf("title line %q", lines[0])
	}
}
