// Package analysis assembles the ltr-vet analyzer suite: the custom
// go/analysis checkers that machine-check this repo's concurrency,
// pooling, and hot-path invariants. cmd/ltr-vet runs All() over the
// module; the analyzers' own tests exercise them one at a time.
package analysis

import (
	goanalysis "golang.org/x/tools/go/analysis"

	"longtailrec/internal/analysis/allocfree"
	"longtailrec/internal/analysis/atomicfield"
	"longtailrec/internal/analysis/ctxflow"
	"longtailrec/internal/analysis/directives"
	"longtailrec/internal/analysis/poolreturn"
)

// All returns the full suite in name order, matching
// directives.AnalyzerNames (the names //ltr:ignore accepts).
func All() []*goanalysis.Analyzer {
	return []*goanalysis.Analyzer{
		allocfree.Analyzer,
		atomicfield.Analyzer,
		ctxflow.Analyzer,
		directives.Analyzer,
		poolreturn.Analyzer,
	}
}
