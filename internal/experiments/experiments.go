// Package experiments wires the library into the paper's evaluation: one
// entry point per table and figure in Section 5, shared by the ltr-bench
// command and the root benchmark suite. Each experiment returns structured
// results plus a paper-style text rendering.
//
// The paper's corpora are substituted by the synthetic worlds of
// internal/synth (see DESIGN.md §4); Scale controls how much of the
// protocol runs so benchmarks stay fast while the CLI can run the full
// panel sizes.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"longtailrec"
	"longtailrec/internal/dataset"
	"longtailrec/internal/eval"
	"longtailrec/internal/lda"
	"longtailrec/internal/synth"
	"longtailrec/internal/worlds"
)

// Scale sets the protocol sizes. The paper's values are TestRatings=4000,
// Negatives=1000, PanelUsers=2000, Evaluators=50, MaxN=50, ListSize=10.
type Scale struct {
	TestRatings int
	Negatives   int
	PanelUsers  int
	Evaluators  int
	MaxN        int
	ListSize    int
}

// QuickScale is sized for CI benchmarks: every experiment finishes in
// seconds while preserving the paper's orderings.
func QuickScale() Scale {
	return Scale{TestRatings: 120, Negatives: 300, PanelUsers: 80, Evaluators: 30, MaxN: 50, ListSize: 10}
}

// FullScale approximates the paper's protocol sizes (minutes, not seconds).
func FullScale() Scale {
	return Scale{TestRatings: 1000, Negatives: 1000, PanelUsers: 400, Evaluators: 50, MaxN: 50, ListSize: 10}
}

// Env is a prepared experimental environment: a synthetic world, a
// train/test split, a trained System, and a test-user panel.
type Env struct {
	Kind  string // "movielens" or "douban"
	Scale Scale
	World *synth.World
	Split *dataset.HeldOutSplit
	Sys   *longtail.System
	Panel []int
}

// NewEnv generates the corpus for kind (a worlds.Kinds name: "movielens"
// or "douban"), holds out the long-tail test ratings, and builds the
// System on the training half. Deterministic given seed.
func NewEnv(kind string, scale Scale, seed int64) (*Env, error) {
	cfg, err := worlds.Config(kind, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	world, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 17))
	split, err := world.Data.SplitLongTailTest(rng, scale.TestRatings, 5, 0.2)
	if err != nil {
		return nil, fmt.Errorf("experiments: split: %w", err)
	}
	sysCfg := longtail.DefaultConfig()
	sysCfg.Seed = seed
	sysCfg.LDA = lda.Config{NumTopics: cfg.NumGenres * 2, Iterations: 40, Seed: seed + 3}
	sysCfg.SVDRank = 40
	sys, err := longtail.NewSystem(split.Train, sysCfg)
	if err != nil {
		return nil, err
	}
	panel, err := split.Train.SampleUsers(rng, scale.PanelUsers, 3)
	if err != nil {
		return nil, fmt.Errorf("experiments: panel: %w", err)
	}
	return &Env{Kind: kind, Scale: scale, World: world, Split: split, Sys: sys, Panel: panel}, nil
}

// Suite returns the paper's seven algorithms trained on the env.
func (e *Env) Suite() ([]longtail.Recommender, error) {
	return e.Sys.PaperSuite()
}

// renderTable formats rows of label→values with a header.
func renderTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Figure2Result is the §3.3 worked example.
type Figure2Result struct {
	// HittingTimes maps movie labels (M1..M6) to H(U5|M); rated movies
	// are omitted.
	HittingTimes map[string]float64
	// Ranking is the ascending-hitting-time order of candidate movies.
	Ranking []string
	Text    string
}

// Figure2 reproduces the worked example: the Figure 2 graph, query user
// U5, exact hitting times, and the niche-first ranking M4 < M1 < M5 < M6.
func Figure2() (*Figure2Result, error) {
	d, err := dataset.New(5, 6, []dataset.Rating{
		{User: 0, Item: 0, Score: 5}, {User: 0, Item: 1, Score: 3}, {User: 0, Item: 4, Score: 3}, {User: 0, Item: 5, Score: 5},
		{User: 1, Item: 0, Score: 5}, {User: 1, Item: 1, Score: 4}, {User: 1, Item: 2, Score: 5}, {User: 1, Item: 4, Score: 4}, {User: 1, Item: 5, Score: 5},
		{User: 2, Item: 0, Score: 4}, {User: 2, Item: 1, Score: 5}, {User: 2, Item: 2, Score: 4},
		{User: 3, Item: 2, Score: 5}, {User: 3, Item: 3, Score: 5},
		{User: 4, Item: 1, Score: 4}, {User: 4, Item: 2, Score: 5},
	})
	if err != nil {
		return nil, err
	}
	cfg := longtail.DefaultConfig()
	cfg.Walk.Exact = true
	sys, err := longtail.NewSystem(d, cfg)
	if err != nil {
		return nil, err
	}
	recs, err := longtail.RecommendItems(sys.HT(), 4, 4)
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{HittingTimes: make(map[string]float64)}
	rows := make([][]string, 0, len(recs))
	for _, r := range recs {
		label := fmt.Sprintf("M%d", r.Item+1)
		ht := -r.Score
		res.HittingTimes[label] = ht
		res.Ranking = append(res.Ranking, label)
		rows = append(rows, []string{label, fmt.Sprintf("%.1f", ht)})
	}
	res.Text = renderTable("Figure 2 worked example: H(U5|M) (paper: M4=17.7 M1=19.6 M5=20.2 M6=20.3)",
		[]string{"movie", "hitting time"}, rows)
	return res, nil
}

// Table1Result is the topic-readout experiment.
type Table1Result struct {
	// Topics[t] lists the genre labels of topic t's top items.
	Topics [][]string
	// Purity is the fraction of top items whose genre matches their
	// topic's majority genre (1.0 = perfectly coherent topics).
	Purity float64
	Text   string
}

// Table1 trains the rating-LDA on a synthetic world and reads out the top
// items per topic with their ground-truth genres — the analogue of the
// paper's "Children's vs Action" topic table.
func Table1(env *Env, topicsToShow, itemsPerTopic int) (*Table1Result, error) {
	model, err := env.Sys.LDAModel()
	if err != nil {
		return nil, err
	}
	if topicsToShow <= 0 || topicsToShow > model.NumTopics() {
		topicsToShow = 2
	}
	if itemsPerTopic <= 0 {
		itemsPerTopic = 5
	}
	res := &Table1Result{}
	var rows [][]string
	matches, total := 0, 0
	for z := 0; z < topicsToShow; z++ {
		top := model.TopItems(z, itemsPerTopic)
		labels := make([]string, 0, len(top))
		genreCount := map[int]int{}
		for _, ti := range top {
			g := env.World.ItemGenre[ti.Item]
			genreCount[g]++
			labels = append(labels, fmt.Sprintf("%s(%s)", env.World.ItemName(ti.Item), env.World.GenreName(g)))
		}
		best := 0
		for _, c := range genreCount {
			if c > best {
				best = c
			}
		}
		matches += best
		total += len(top)
		res.Topics = append(res.Topics, labels)
		rows = append(rows, []string{fmt.Sprintf("Topic %d", z+1), strings.Join(labels, ", ")})
	}
	if total > 0 {
		res.Purity = float64(matches) / float64(total)
	}
	res.Text = renderTable(fmt.Sprintf("Table 1 analogue: top items per LDA topic (purity %.2f)", res.Purity),
		[]string{"topic", "top items (ground-truth genre)"}, rows)
	return res, nil
}

// RecallCurves is the Figure 5 output.
type RecallCurves struct {
	Dataset string
	Results []eval.RecallResult
	Text    string
}

// Figure5 runs the Recall@N protocol over the paper suite.
func Figure5(env *Env) (*RecallCurves, error) {
	suite, err := env.Suite()
	if err != nil {
		return nil, err
	}
	res, err := eval.Recall(suite, env.Split.Train, env.Split.Test, eval.RecallOptions{
		NumNegatives: env.Scale.Negatives,
		MaxN:         env.Scale.MaxN,
		Seed:         99,
	})
	if err != nil {
		return nil, err
	}
	out := &RecallCurves{Dataset: env.Kind, Results: res}
	header := []string{"algorithm", "R@5", "R@10", "R@20", "R@50"}
	var rows [][]string
	for _, r := range res {
		pick := func(n int) string {
			if n > len(r.Recall) {
				n = len(r.Recall)
			}
			return fmt.Sprintf("%.3f", r.Recall[n-1])
		}
		rows = append(rows, []string{r.Name, pick(5), pick(10), pick(20), pick(50)})
	}
	out.Text = renderTable(fmt.Sprintf("Figure 5 (%s): Recall@N (paper order AC2>AC1>AT>HT>DPPR/PureSVD/LDA)", env.Kind),
		header, rows)
	return out, nil
}

// ListPanel is the shared Figure 6 / Tables 2, 3, 5 measurement.
type ListPanel struct {
	Dataset string
	Metrics []eval.ListMetrics
	Text    string
}

// ListExperiments runs the §5.2.2–§5.2.6 panel once, yielding
// Popularity@N (Figure 6), Diversity (Table 2), Similarity (Table 3) and
// per-user latency (Table 5).
func ListExperiments(env *Env) (*ListPanel, error) {
	suite, err := env.Suite()
	if err != nil {
		return nil, err
	}
	ms, err := eval.Lists(suite, env.Split.Train, env.Panel, eval.ListOptions{
		ListSize: env.Scale.ListSize,
		Ontology: env.World.Ontology,
	})
	if err != nil {
		return nil, err
	}
	out := &ListPanel{Dataset: env.Kind, Metrics: ms}
	var rows [][]string
	for _, m := range ms {
		rows = append(rows, []string{
			m.Name,
			fmt.Sprintf("%.1f", m.MeanPopularity),
			fmt.Sprintf("%.3f", m.Diversity),
			fmt.Sprintf("%.3f", m.Similarity),
			fmt.Sprintf("%.4fs", m.SecondsPerUser),
		})
	}
	out.Text = renderTable(
		fmt.Sprintf("Figure 6 + Tables 2/3/5 (%s): top-%d lists over %d users",
			env.Kind, env.Scale.ListSize, len(env.Panel)),
		[]string{"algorithm", "mean popularity", "diversity", "similarity", "sec/user"}, rows)
	return out, nil
}

// Figure6Text renders the per-position popularity curves of a ListPanel —
// the Figure 6 view (Popularity@N for N = 1..listSize).
func Figure6Text(lp *ListPanel) string {
	if len(lp.Metrics) == 0 {
		return ""
	}
	positions := len(lp.Metrics[0].PopularityAt)
	header := make([]string, 0, positions+1)
	header = append(header, "algorithm")
	for n := 1; n <= positions; n++ {
		header = append(header, fmt.Sprintf("P@%d", n))
	}
	var rows [][]string
	for _, m := range lp.Metrics {
		row := make([]string, 0, positions+1)
		row = append(row, m.Name)
		for _, p := range m.PopularityAt {
			row = append(row, fmt.Sprintf("%.0f", p))
		}
		rows = append(rows, row)
	}
	return renderTable(fmt.Sprintf("Figure 6 (%s): mean popularity of the item at position N", lp.Dataset),
		header, rows)
}

// MuSweepRow is one µ setting of Table 4.
type MuSweepRow struct {
	Mu             int
	MeanPopularity float64
	Similarity     float64
	Diversity      float64
	SecondsPerUser float64
}

// MuSweep is the Table 4 output.
type MuSweep struct {
	Rows []MuSweepRow
	Text string
}

// Table4 sweeps the subgraph budget µ for AC2 and measures popularity,
// similarity, diversity and latency, as in Table 4. mus of 0 or less mean
// "whole graph".
func Table4(env *Env, mus []int) (*MuSweep, error) {
	if len(mus) == 0 {
		mus = []int{400, 800, 1600, 0}
	}
	// AC2 needs topic entropies once; rebuild the recommender per µ.
	model, err := env.Sys.LDAModel()
	if err != nil {
		return nil, err
	}
	_ = model
	out := &MuSweep{}
	var rows [][]string
	for _, mu := range mus {
		cfg := longtail.DefaultConfig()
		cfg.Seed = 5
		cfg.LDA = lda.Config{NumTopics: 8, Iterations: 30, Seed: 11}
		cfg.Walk.MaxSubgraphItems = mu
		if mu <= 0 {
			cfg.Walk.MaxSubgraphItems = env.Split.Train.NumItems() + 1
		}
		sys, err := longtail.NewSystem(env.Split.Train, cfg)
		if err != nil {
			return nil, err
		}
		ac2, err := sys.AC2()
		if err != nil {
			return nil, err
		}
		ms, err := eval.Lists([]longtail.Recommender{ac2}, env.Split.Train, env.Panel, eval.ListOptions{
			ListSize: env.Scale.ListSize,
			Ontology: env.World.Ontology,
		})
		if err != nil {
			return nil, err
		}
		m := ms[0]
		label := mu
		if mu <= 0 {
			label = env.Split.Train.NumItems()
		}
		out.Rows = append(out.Rows, MuSweepRow{
			Mu:             label,
			MeanPopularity: m.MeanPopularity,
			Similarity:     m.Similarity,
			Diversity:      m.Diversity,
			SecondsPerUser: m.SecondsPerUser,
		})
		rows = append(rows, []string{
			fmt.Sprintf("%d", label),
			fmt.Sprintf("%.1f", m.MeanPopularity),
			fmt.Sprintf("%.3f", m.Similarity),
			fmt.Sprintf("%.3f", m.Diversity),
			fmt.Sprintf("%.4fs", m.SecondsPerUser),
		})
	}
	out.Text = renderTable("Table 4: impact of subgraph budget µ on AC2",
		[]string{"mu", "popularity", "similarity", "diversity", "sec/user"}, rows)
	return out, nil
}

// StudyPanel is the Table 6 output.
type StudyPanel struct {
	Results []eval.StudyResult
	Text    string
}

// Table6 runs the simulated user study over the four algorithms of the
// paper's survey: AC2, DPPR, PureSVD, LDA.
func Table6(env *Env) (*StudyPanel, error) {
	ac2, err := env.Sys.AC2()
	if err != nil {
		return nil, err
	}
	psvd, err := env.Sys.PureSVD()
	if err != nil {
		return nil, err
	}
	ldaRec, err := env.Sys.LDA()
	if err != nil {
		return nil, err
	}
	recs := []longtail.Recommender{ac2, env.Sys.DPPR(), psvd, ldaRec}
	evaluators := env.Panel
	if len(evaluators) > env.Scale.Evaluators {
		evaluators = evaluators[:env.Scale.Evaluators]
	}
	res, err := eval.UserStudy(recs, env.World, env.Split.Train, evaluators, eval.StudyOptions{
		ListSize: env.Scale.ListSize,
	})
	if err != nil {
		return nil, err
	}
	out := &StudyPanel{Results: res}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.2f", r.Preference),
			fmt.Sprintf("%.2f", r.Novelty),
			fmt.Sprintf("%.2f", r.Serendipity),
			fmt.Sprintf("%.2f", r.Score),
		})
	}
	out.Text = renderTable(fmt.Sprintf("Table 6: simulated user study (%d evaluators)", len(evaluators)),
		[]string{"algorithm", "preference", "novelty", "serendipity", "score"}, rows)
	return out, nil
}

// SalesDiversityPanel is the extension experiment quantifying the
// rich-get-richer effect (§5.2.3's motivation, Fleder & Hosanagar) with
// aggregate exposure measures: Gini, catalog coverage and tail share.
type SalesDiversityPanel struct {
	Dataset string
	Results []eval.SalesDiversity
	Text    string
}

// SalesDiversityExperiment measures exposure concentration for the paper
// suite plus the AC3 extension and the popularity floor.
func SalesDiversityExperiment(env *Env) (*SalesDiversityPanel, error) {
	suite, err := env.Suite()
	if err != nil {
		return nil, err
	}
	ac3, err := env.Sys.AC3()
	if err != nil {
		return nil, err
	}
	recs := append(append([]longtail.Recommender{}, suite...), ac3, env.Sys.MostPopular())
	res, err := eval.MeasureSalesDiversity(recs, env.Split.Train, env.Panel, env.Scale.ListSize)
	if err != nil {
		return nil, err
	}
	out := &SalesDiversityPanel{Dataset: env.Kind, Results: res}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.3f", r.Gini),
			fmt.Sprintf("%.3f", r.Coverage),
			fmt.Sprintf("%.3f", r.TailShare),
		})
	}
	out.Text = renderTable(
		fmt.Sprintf("Sales diversity extension (%s): exposure concentration over %d users",
			env.Kind, len(env.Panel)),
		[]string{"algorithm", "gini", "coverage", "tail share"}, rows)
	return out, nil
}

// RankingPanel is the extension experiment reporting MRR/NDCG/mean-rank on
// the same candidate-ranking protocol as Figure 5.
type RankingPanel struct {
	Dataset string
	Results []eval.RankingResult
	Text    string
}

// RankingExperiment runs the rank-sensitive view of the recall protocol.
func RankingExperiment(env *Env) (*RankingPanel, error) {
	suite, err := env.Suite()
	if err != nil {
		return nil, err
	}
	res, err := eval.RankingMetrics(suite, env.Split.Train, env.Split.Test, eval.RecallOptions{
		NumNegatives: env.Scale.Negatives,
		MaxN:         env.Scale.MaxN,
		Seed:         99, // same candidates as Figure5
		Parallelism:  4,
	})
	if err != nil {
		return nil, err
	}
	out := &RankingPanel{Dataset: env.Kind, Results: res}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.4f", r.MRR),
			fmt.Sprintf("%.4f", r.NDCG),
			fmt.Sprintf("%.1f", r.MeanRank),
		})
	}
	out.Text = renderTable(
		fmt.Sprintf("Ranking extension (%s): MRR / NDCG on the Figure 5 protocol", env.Kind),
		[]string{"algorithm", "MRR", "NDCG", "mean rank"}, rows)
	return out, nil
}

// BeyondAccuracyPanel is the extension experiment reporting novelty,
// serendipity, intra-list similarity, coverage and cold-start share — the
// beyond-accuracy view of the paper's Table 6 and §5.2.3 arguments.
type BeyondAccuracyPanel struct {
	Dataset string
	Results []eval.BeyondAccuracy
	Text    string
}

// BeyondAccuracyExperiment measures beyond-accuracy list quality for the
// paper suite plus the popularity floor.
func BeyondAccuracyExperiment(env *Env) (*BeyondAccuracyPanel, error) {
	suite, err := env.Suite()
	if err != nil {
		return nil, err
	}
	recs := append(append([]longtail.Recommender{}, suite...), env.Sys.MostPopular())
	res, err := eval.MeasureBeyondAccuracy(recs, env.Split.Train, env.Panel, eval.BeyondAccuracyOptions{
		ListSize: env.Scale.ListSize,
		Ontology: env.World.Ontology,
	})
	if err != nil {
		return nil, err
	}
	out := &BeyondAccuracyPanel{Dataset: env.Kind, Results: res}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.2f", r.Novelty),
			fmt.Sprintf("%.3f", r.Serendipity),
			fmt.Sprintf("%.3f", r.IntraListSimilarity),
			fmt.Sprintf("%.3f", r.Coverage),
			fmt.Sprintf("%.3f", r.ColdStartShare),
		})
	}
	out.Text = renderTable(
		fmt.Sprintf("Beyond-accuracy extension (%s): top-%d lists over %d users",
			env.Kind, env.Scale.ListSize, len(env.Panel)),
		[]string{"algorithm", "novelty(bits)", "serendipity", "ILS", "coverage", "cold share"}, rows)
	return out, nil
}

// StratifiedPanel is the extension experiment reporting recall broken
// down by held-out item popularity, with a bootstrap confidence interval
// on the overall Recall@10 — how far into the tail each algorithm's
// accuracy actually reaches.
type StratifiedPanel struct {
	Dataset   string
	Results   []eval.StratifiedResult
	Intervals []eval.RecallInterval
	Text      string
}

// StratifiedExperiment splits the Figure 5 protocol at popularity 10 and
// 50 and adds 95% bootstrap intervals at N=10.
func StratifiedExperiment(env *Env) (*StratifiedPanel, error) {
	suite, err := env.Suite()
	if err != nil {
		return nil, err
	}
	opts := eval.RecallOptions{
		NumNegatives: env.Scale.Negatives,
		MaxN:         env.Scale.MaxN,
		Seed:         99, // same candidates as Figure5
		Parallelism:  4,
	}
	bounds := []int{10, 50, 1 << 30}
	res, err := eval.StratifiedRecall(suite, env.Split.Train, env.Split.Test, bounds, opts)
	if err != nil {
		return nil, err
	}
	ivs, err := eval.BootstrapRecall(suite, env.Split.Train, env.Split.Test, 10, 0.95, 500, opts)
	if err != nil {
		return nil, err
	}
	out := &StratifiedPanel{Dataset: env.Kind, Results: res, Intervals: ivs}
	header := []string{"algorithm"}
	for _, s := range res[0].Strata {
		label := fmt.Sprintf("R@10 pop<=%d (n=%d)", s.MaxPopularity, s.Cases)
		if s.MaxPopularity >= 1<<30 {
			label = fmt.Sprintf("R@10 head (n=%d)", s.Cases)
		}
		header = append(header, label)
	}
	header = append(header, "R@10 95% CI")
	var rows [][]string
	for k, r := range res {
		row := []string{r.Name}
		for _, s := range r.Strata {
			row = append(row, fmt.Sprintf("%.3f", at(s.RecallAtN, 10)))
		}
		row = append(row, fmt.Sprintf("%.3f [%.3f,%.3f]", ivs[k].Point, ivs[k].Lo, ivs[k].Hi))
		rows = append(rows, row)
	}
	out.Text = renderTable(
		fmt.Sprintf("Stratified-recall extension (%s): accuracy by held-out item popularity", env.Kind),
		header, rows)
	return out, nil
}

// at reads curve[n-1] defensively.
func at(curve []float64, n int) float64 {
	if n > len(curve) {
		n = len(curve)
	}
	if n == 0 {
		return 0
	}
	return curve[n-1]
}

// Names lists the experiment identifiers understood by ltr-bench, in the
// paper's order (the order `ltr-bench -exp all` runs them in).
func Names() []string {
	return []string{"fig2", "table1", "fig5a", "fig5b", "fig6a", "fig6b", "table2", "table3", "table4", "table5", "table6", "gini", "ranking", "beyond", "strata"}
}
