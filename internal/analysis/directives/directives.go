// Package directives defines the //ltr: directive-comment language shared
// by every ltr-vet analyzer, and the ltrdirective analyzer that validates
// directive usage itself.
//
// The stack's concurrency and hot-path invariants are enforced by custom
// analyzers (see internal/analysis); directive comments are how the source
// marks the audited exceptions and the annotated hot paths:
//
//	//ltr:allocfree               on a function: the body must stay free of
//	                              heap-escaping constructs (the static
//	                              complement of the 25 allocs/op bench gate).
//	//ltr:ignore <names> <reason> on or directly above a flagged line:
//	                              suppress the named analyzers' diagnostics
//	                              there. Names are comma-separated; a
//	                              non-empty reason is mandatory.
package directives

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Prefix starts every ltr directive comment.
const Prefix = "//ltr:"

// Directive verbs.
const (
	VerbIgnore    = "ignore"
	VerbAllocFree = "allocfree"
)

// AnalyzerNames is the canonical name set of the ltr-vet suite — the names
// an //ltr:ignore directive may suppress. internal/analysis asserts its
// registry matches this list.
var AnalyzerNames = []string{
	"allocfree",
	"atomicfield",
	"ctxflow",
	"ltrdirective",
	"poolreturn",
}

func knownAnalyzer(name string) bool {
	for _, n := range AnalyzerNames {
		if n == name {
			return true
		}
	}
	return false
}

// Parse splits one comment into its directive verb and trailing argument
// text. ok is false for non-directive comments.
func Parse(c *ast.Comment) (verb, rest string, ok bool) {
	if !strings.HasPrefix(c.Text, Prefix) {
		return "", "", false
	}
	body := strings.TrimPrefix(c.Text, Prefix)
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return body[:i], strings.TrimSpace(body[i+1:]), true
	}
	return body, "", true
}

// Ignore is one parsed //ltr:ignore directive.
type Ignore struct {
	Names  []string // analyzer names the directive suppresses
	Reason string
	Pos    token.Pos
}

// parseIgnore splits the argument text of an ignore directive: the first
// field is a comma-separated analyzer list, everything after it the reason.
func parseIgnore(rest string, pos token.Pos) Ignore {
	ig := Ignore{Pos: pos}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return ig
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			ig.Names = append(ig.Names, n)
		}
	}
	ig.Reason = strings.TrimSpace(rest[len(fields[0]):])
	return ig
}

// FuncMarked reports whether fn's doc comment carries the directive verb.
func FuncMarked(fn *ast.FuncDecl, verb string) bool {
	return groupHasVerb(fn.Doc, verb)
}

func groupHasVerb(g *ast.CommentGroup, verb string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if v, _, ok := Parse(c); ok && v == verb {
			return true
		}
	}
	return false
}

// Suppressor filters one analyzer's diagnostics through the package's
// //ltr:ignore directives. A directive suppresses diagnostics reported on
// its own line and on the line directly below it (the standalone
// comment-above-the-statement placement).
type Suppressor struct {
	pass    *analysis.Pass
	ignored map[string]map[int]bool // filename -> suppressed lines
}

// NewSuppressor builds the ignore line index for the named analyzer over
// the pass's files.
func NewSuppressor(pass *analysis.Pass, name string) *Suppressor {
	s := &Suppressor{pass: pass, ignored: make(map[string]map[int]bool)}
	for _, f := range pass.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				verb, rest, ok := Parse(c)
				if !ok || verb != VerbIgnore {
					continue
				}
				ig := parseIgnore(rest, c.Pos())
				if ig.Reason == "" {
					continue // invalid; ltrdirective reports it, nothing is suppressed
				}
				for _, n := range ig.Names {
					if n != name {
						continue
					}
					p := pass.Fset.Position(c.Pos())
					lines := s.ignored[p.Filename]
					if lines == nil {
						lines = make(map[int]bool)
						s.ignored[p.Filename] = lines
					}
					lines[p.Line] = true
					lines[p.Line+1] = true
				}
			}
		}
	}
	return s
}

// Suppressed reports whether a diagnostic at pos is covered by an ignore.
func (s *Suppressor) Suppressed(pos token.Pos) bool {
	p := s.pass.Fset.Position(pos)
	return s.ignored[p.Filename][p.Line]
}

// Reportf reports a diagnostic unless an ignore directive covers it.
func (s *Suppressor) Reportf(pos token.Pos, format string, args ...interface{}) {
	if s.Suppressed(pos) {
		return
	}
	s.pass.Reportf(pos, format, args...)
}

// Analyzer validates every //ltr: directive in the package: unknown verbs,
// misplaced function/field directives, ignore directives without a reason
// or naming unknown analyzers.
var Analyzer = &analysis.Analyzer{
	Name: "ltrdirective",
	Doc:  "check that //ltr: directive comments are well-formed: known verbs, valid placement, ignores with analyzer names and a reason",
	Run:  runDirective,
}

func runDirective(pass *analysis.Pass) (interface{}, error) {
	rep := NewSuppressor(pass, "ltrdirective")
	for _, f := range pass.Files {
		funcDocs := funcDocDirectives(f)
		for _, g := range f.Comments {
			for _, c := range g.List {
				verb, rest, ok := Parse(c)
				if !ok {
					continue
				}
				switch {
				case verb == VerbIgnore:
					checkIgnore(rep, c, rest)
				case verb == VerbAllocFree:
					if !funcDocs[c] {
						rep.Reportf(c.Pos(), "ltr:%s directive must be in the doc comment of a function declaration", verb)
					}
				default:
					rep.Reportf(c.Pos(), "unknown ltr directive %q (known: ignore, allocfree)", verb)
				}
			}
		}
	}
	return nil, nil
}

func checkIgnore(rep *Suppressor, c *ast.Comment, rest string) {
	ig := parseIgnore(rest, c.Pos())
	if len(ig.Names) == 0 {
		rep.Reportf(c.Pos(), "ltr:ignore directive needs at least one analyzer name (known: %s)", strings.Join(AnalyzerNames, ", "))
		return
	}
	for _, n := range ig.Names {
		if !knownAnalyzer(n) {
			rep.Reportf(c.Pos(), "ltr:ignore names unknown analyzer %q (known: %s)", n, strings.Join(AnalyzerNames, ", "))
		}
	}
	if ig.Reason == "" {
		rep.Reportf(c.Pos(), "ltr:ignore directive needs a reason after the analyzer names")
	}
}

// funcDocDirectives collects the directive comments of the file that sit
// in a function declaration's doc comment.
func funcDocDirectives(f *ast.File) map[*ast.Comment]bool {
	out := make(map[*ast.Comment]bool)
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Doc == nil {
			continue
		}
		for _, c := range fn.Doc.List {
			if _, _, ok := Parse(c); ok {
				out[c] = true
			}
		}
	}
	return out
}

// SortedNames returns the known analyzer names, sorted — a convenience for
// deterministic documentation output.
func SortedNames() []string {
	out := append([]string(nil), AnalyzerNames...)
	sort.Strings(out)
	return out
}
