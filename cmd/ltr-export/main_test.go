package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"longtailrec/internal/persist"
)

func writeTSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ratings.tsv")
	lines := []string{
		"u1\ti1\t5", "u1\ti2\t4", "u1\ti3\t3",
		"u2\ti1\t4", "u2\ti3\t5",
		"u3\ti2\t2", "u3\ti4\t5",
		"u4\ti4\t4", "u4\ti1\t3",
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunExportsDatasetAndModels(t *testing.T) {
	in := writeTSV(t)
	out := filepath.Join(t.TempDir(), "corpus.ltrz")
	if err := run(in, "tsv", out, "", "lda,puresvd", 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	// The dataset container must reload into the same corpus.
	if err := persist.LoadFile(out, func(r io.Reader) error {
		d, err := persist.LoadDataset(r)
		if err != nil {
			return err
		}
		if d.NumRatings() != 9 {
			t.Fatalf("ratings %d", d.NumRatings())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Every model artifact exists and loads.
	base := strings.TrimSuffix(out, ".ltrz")
	if err := persist.LoadFile(base+".lda.ltrz", func(r io.Reader) error {
		_, err := persist.LoadLDA(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(base + ".puresvd.ltrz"); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	in := writeTSV(t)
	out := filepath.Join(t.TempDir(), "c.ltrz")
	if err := run(in, "tsv", "", "", "", 2, 2, 1); err == nil {
		t.Fatal("missing -out accepted")
	}
	if err := run("", "tsv", out, "", "", 2, 2, 1); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := run(in, "nope", out, "", "", 2, 2, 1); err == nil {
		t.Fatal("unknown format accepted")
	}
	for _, model := range []string{"notamodel", "biasedmf"} {
		if err := run(in, "tsv", out, "", model, 2, 2, 1); err == nil {
			t.Fatalf("unknown model %q accepted", model)
		}
	}
	if err := run("", "tsv", out, "neither", "", 2, 2, 1); err == nil {
		t.Fatal("unknown synthetic corpus accepted")
	}
	if err := run("/does/not/exist.tsv", "tsv", out, "", "", 2, 2, 1); err == nil {
		t.Fatal("missing input file accepted")
	}
}
