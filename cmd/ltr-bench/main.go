// Command ltr-bench regenerates every table and figure of the paper's
// evaluation section on the synthetic substitute corpora:
//
//	ltr-bench -exp all -scale quick
//	ltr-bench -exp fig5a,table2 -scale full -seed 7
//
// Experiment ids follow the paper: fig2 (worked example), table1 (LDA
// topics), fig5a/fig5b (Recall@N on MovieLens-like/Douban-like),
// fig6a/fig6b (Popularity@N on Douban-like/MovieLens-like), table2
// (diversity), table3 (similarity), table4 (µ sweep), table5 (timing),
// table6 (simulated user study); plus the extensions gini (sales-diversity
// aggregates), ranking (MRR/NDCG on the Figure 5 protocol), beyond
// (novelty / serendipity / intra-list-similarity / coverage) and strata
// (recall by held-out item popularity, with bootstrap intervals).
// experiments.Names is the one list of ids.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"longtailrec/internal/experiments"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment ids, or 'all' (choices: "+strings.Join(experiments.Names(), ", ")+")")
		scaleFlag = flag.String("scale", "quick", "protocol scale: quick or full")
		seedFlag  = flag.Int64("seed", 42, "random seed for corpus generation and protocols")
	)
	flag.Parse()
	if err := run(*expFlag, *scaleFlag, *seedFlag); err != nil {
		fmt.Fprintf(os.Stderr, "ltr-bench: %v\n", err)
		os.Exit(1)
	}
}

// runner caches environments and panel measurements shared across
// experiments (fig6a, table2, table3 and table5 all come from one Lists
// pass per dataset).
type runner struct {
	scale  experiments.Scale
	seed   int64
	envs   map[string]*experiments.Env
	panels map[string]*experiments.ListPanel
}

func run(expFlag, scaleFlag string, seed int64) error {
	var scale experiments.Scale
	switch scaleFlag {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", scaleFlag)
	}
	var ids []string
	if expFlag == "all" {
		ids = experiments.Names()
	} else {
		for _, id := range strings.Split(expFlag, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no experiments selected")
	}
	r := &runner{
		scale:  scale,
		seed:   seed,
		envs:   make(map[string]*experiments.Env),
		panels: make(map[string]*experiments.ListPanel),
	}
	for _, id := range ids {
		start := time.Now()
		text, err := r.experiment(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Print(text)
		fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	return nil
}

func (r *runner) env(kind string) (*experiments.Env, error) {
	if e, ok := r.envs[kind]; ok {
		return e, nil
	}
	fmt.Printf("... preparing %s environment\n", kind)
	e, err := experiments.NewEnv(kind, r.scale, r.seed)
	if err != nil {
		return nil, err
	}
	r.envs[kind] = e
	return e, nil
}

func (r *runner) panel(kind string) (*experiments.ListPanel, error) {
	if p, ok := r.panels[kind]; ok {
		return p, nil
	}
	e, err := r.env(kind)
	if err != nil {
		return nil, err
	}
	p, err := experiments.ListExperiments(e)
	if err != nil {
		return nil, err
	}
	r.panels[kind] = p
	return p, nil
}

func (r *runner) experiment(id string) (string, error) {
	switch id {
	case "fig2":
		res, err := experiments.Figure2()
		if err != nil {
			return "", err
		}
		return res.Text, nil
	case "table1":
		e, err := r.env("movielens")
		if err != nil {
			return "", err
		}
		res, err := experiments.Table1(e, 2, 5)
		if err != nil {
			return "", err
		}
		return res.Text, nil
	case "fig5a", "fig5b":
		kind := "movielens"
		if id == "fig5b" {
			kind = "douban"
		}
		e, err := r.env(kind)
		if err != nil {
			return "", err
		}
		res, err := experiments.Figure5(e)
		if err != nil {
			return "", err
		}
		return res.Text, nil
	case "fig6a", "fig6b":
		kind := "douban"
		if id == "fig6b" {
			kind = "movielens"
		}
		p, err := r.panel(kind)
		if err != nil {
			return "", err
		}
		return experiments.Figure6Text(p), nil
	case "table2", "table3", "table5":
		// The paper reports these on Douban; the panel text covers all
		// three columns.
		p, err := r.panel("douban")
		if err != nil {
			return "", err
		}
		return p.Text, nil
	case "table4":
		e, err := r.env("douban")
		if err != nil {
			return "", err
		}
		res, err := experiments.Table4(e, nil)
		if err != nil {
			return "", err
		}
		return res.Text, nil
	case "table6":
		e, err := r.env("movielens")
		if err != nil {
			return "", err
		}
		res, err := experiments.Table6(e)
		if err != nil {
			return "", err
		}
		return res.Text, nil
	case "gini":
		e, err := r.env("douban")
		if err != nil {
			return "", err
		}
		res, err := experiments.SalesDiversityExperiment(e)
		if err != nil {
			return "", err
		}
		return res.Text, nil
	case "ranking":
		e, err := r.env("movielens")
		if err != nil {
			return "", err
		}
		res, err := experiments.RankingExperiment(e)
		if err != nil {
			return "", err
		}
		return res.Text, nil
	case "beyond":
		e, err := r.env("movielens")
		if err != nil {
			return "", err
		}
		res, err := experiments.BeyondAccuracyExperiment(e)
		if err != nil {
			return "", err
		}
		return res.Text, nil
	case "strata":
		e, err := r.env("movielens")
		if err != nil {
			return "", err
		}
		res, err := experiments.StratifiedExperiment(e)
		if err != nil {
			return "", err
		}
		return res.Text, nil
	default:
		return "", fmt.Errorf("unknown experiment (choices: %s)", strings.Join(experiments.Names(), ", "))
	}
}
