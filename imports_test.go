package longtail_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// markovtestPath is the test-only oracle package: the dense exact solve of
// the absorbing walk, which production code must never link.
const markovtestPath = "longtailrec/internal/markov/markovtest"

// TestMarkovtestOnlyInTests fails if any non-test Go file of the module
// imports markovtest, so the truncated sweep stays the one solver the
// programs run. It also requires that test files do import it, so a moved
// package cannot make the check pass by matching nothing.
func TestMarkovtestOnlyInTests(t *testing.T) {
	fset := token.NewFileSet()
	var programFiles, testImporters int
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if !isTest {
			programFiles++
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			switch {
			case p != markovtestPath:
			case isTest:
				testImporters++
			default:
				t.Errorf("%s imports %s; only _test.go files may", path, markovtestPath)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if programFiles < 50 || testImporters == 0 {
		t.Fatalf("walked %d program files and found %d test importers of %s: the walk missed the module", programFiles, testImporters, markovtestPath)
	}
}
