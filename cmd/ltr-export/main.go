// Command ltr-export converts ratings into the binary .ltrz container and
// optionally trains and persists model artifacts next to it:
//
//	ltr-export -in ratings.tsv -format tsv -out corpus.ltrz
//	ltr-export -in ratings.tsv -out corpus.ltrz -models lda,puresvd
//	ltr-export -synthetic movielens -out demo.ltrz
//
// ltr-server loads the dataset container (-format ltrz), which skips
// parsing the ratings text; it trains its models itself and reads none
// of the model artifacts. Those are written as <out base>.<model>.ltrz for
// embedders of internal/persist (persist.LoadLDA, persist.LoadPureSVD).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"longtailrec"
	"longtailrec/internal/dataset"
	"longtailrec/internal/lda"
	"longtailrec/internal/persist"
	"longtailrec/internal/svd"
)

func main() {
	var (
		in        = flag.String("in", "", "ratings file path (required unless -synthetic)")
		format    = flag.String("format", "tsv", "input format: tsv, csv or movielens")
		out       = flag.String("out", "", "output .ltrz path (required)")
		synthetic = flag.String("synthetic", "", "export a synthetic corpus instead: movielens or douban")
		models    = flag.String("models", "", "comma-separated models to train and persist: lda, puresvd")
		topics    = flag.Int("topics", 20, "LDA topics")
		rank      = flag.Int("rank", 50, "PureSVD rank")
		seed      = flag.Int64("seed", 42, "training / synthesis seed")
	)
	flag.Parse()
	if err := run(*in, *format, *out, *synthetic, *models, *topics, *rank, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "ltr-export: %v\n", err)
		os.Exit(1)
	}
}

func run(in, format, out, synthetic, models string, topics, rank int, seed int64) error {
	if out == "" {
		return fmt.Errorf("-out is required")
	}
	data, err := loadData(in, format, synthetic, seed)
	if err != nil {
		return err
	}
	if err := persist.SaveFile(out, func(w io.Writer) error {
		return persist.SaveDataset(w, data)
	}); err != nil {
		return err
	}
	st := data.Summarize()
	fmt.Printf("wrote %s: %d users / %d items / %d ratings\n", out, st.NumUsers, st.NumItems, st.NumRatings)

	base := strings.TrimSuffix(out, ".ltrz")
	for _, model := range strings.Split(models, ",") {
		model = strings.TrimSpace(model)
		if model == "" {
			continue
		}
		path := fmt.Sprintf("%s.%s.ltrz", base, model)
		start := time.Now()
		var saveErr error
		switch model {
		case "lda":
			m, err := lda.Train(data, lda.Config{NumTopics: topics, Seed: seed})
			if err != nil {
				return fmt.Errorf("train lda: %w", err)
			}
			saveErr = persist.SaveFile(path, func(w io.Writer) error { return persist.SaveLDA(w, m) })
		case "puresvd":
			effRank := rank
			if maxRank := min(data.NumUsers(), data.NumItems()); effRank > maxRank {
				effRank = maxRank
			}
			m, err := svd.NewPureSVD(data, svd.Options{Rank: effRank, Seed: seed})
			if err != nil {
				return fmt.Errorf("train puresvd: %w", err)
			}
			saveErr = persist.SaveFile(path, func(w io.Writer) error { return persist.SavePureSVD(w, m) })
		default:
			return fmt.Errorf("unknown model %q (want lda or puresvd)", model)
		}
		if saveErr != nil {
			return saveErr
		}
		fmt.Printf("wrote %s (trained in %s)\n", path, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func loadData(in, format, synthetic string, seed int64) (*longtail.Dataset, error) {
	if synthetic != "" {
		var w *longtail.World
		var err error
		switch synthetic {
		case "movielens":
			w, err = longtail.GenerateMovieLensLike(seed)
		case "douban":
			w, err = longtail.GenerateDoubanLike(seed)
		default:
			return nil, fmt.Errorf("unknown synthetic corpus %q", synthetic)
		}
		if err != nil {
			return nil, err
		}
		return w.Data, nil
	}
	if in == "" {
		return nil, fmt.Errorf("-in is required (or pass -synthetic movielens)")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var loaded *dataset.Loaded
	switch format {
	case "tsv":
		loaded, err = dataset.LoadTSV(f)
	case "csv":
		loaded, err = dataset.LoadCSV(f)
	case "movielens":
		loaded, err = dataset.LoadMovieLens(f)
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return nil, err
	}
	return loaded.Data, nil
}
