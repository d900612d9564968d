// Package analysis implements rths-vet: a suite of static analyzers
// that enforce the repo's determinism, hot-path, and telemetry
// contracts at vet time instead of discovering violations in runtime
// tests. The framework mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) on the standard library alone, so
// the analyzers port to the upstream framework mechanically if the
// dependency ever becomes available.
//
// Contracts enforced (see PERF.md "Static guarantees"):
//
//   - determinism: the deterministic packages (core, regret, distsim,
//     cluster, markov, xrand, alloc, trace, forkjoin) must not read wall
//     clocks (time.Now/Since/Until), import math/rand, or feed ordered
//     state from map iteration. Deliberate seams are annotated with a
//     statement-scoped //rths:nondeterminism-ok <reason> comment.
//   - seedsplit: RNG streams are derived with xrand.Split, never with
//     seed arithmetic (seed+i, seed^i, seed*k) — the PR 4 bug class.
//   - hotpath: functions marked //rths:hotpath must not contain
//     allocation constructs (make/new, escaping composite literals,
//     append to non-receiver slices, string concatenation, fmt calls,
//     interface boxing of concrete values).
//   - telemetrylint: metric declarations follow Prometheus conventions
//     (rths_ prefix, lowercase names, counters end in _total), With()
//     arity matches the family's label declaration, and help strings
//     carry no raw newlines or backslashes.
//
// All analyzers skip _test.go files: tests legitimately read wall
// clocks, construct adversarial seeds, and register hostile metric
// names on purpose.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis pass and its entry point.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Report; the error return is for operational failures only.
	Run func(*Pass) error
}

// A Pass presents one typechecked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	markers map[*ast.File]map[int][]Marker
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full rths-vet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, SeedSplit, HotPath, TelemetryLint}
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. The contract analyzers skip them: tests read wall clocks and
// build hostile inputs deliberately.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// PkgPathBase returns the last element of a package path with any
// " [pkg.test]" test-variant suffix (as handed to vettools by go vet)
// stripped, e.g. "rths/internal/core [rths/internal/core.test]" →
// "core".
func PkgPathBase(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// MarkerPrefix introduces every rths annotation comment.
const MarkerPrefix = "//rths:"

// A Marker is one parsed //rths:<key> <reason> annotation comment.
type Marker struct {
	Key    string // e.g. "nondeterminism-ok", "hotpath"
	Reason string // text after the key, space-trimmed
	Line   int    // 1-based line the comment sits on
	Pos    token.Pos
}

// ParseMarker parses one comment's text as an rths marker. Returns
// false if the comment is not an annotation.
func ParseMarker(c *ast.Comment) (Marker, bool) {
	text := c.Text
	if !strings.HasPrefix(text, MarkerPrefix) {
		return Marker{}, false
	}
	rest := text[len(MarkerPrefix):]
	key, reason, _ := strings.Cut(rest, " ")
	return Marker{Key: strings.TrimSpace(key), Reason: strings.TrimSpace(reason), Pos: c.Pos()}, true
}

// FileMarkers returns every rths annotation in the file, indexed by
// the line it appears on.
func (p *Pass) FileMarkers(f *ast.File) map[int][]Marker {
	if p.markers == nil {
		p.markers = make(map[*ast.File]map[int][]Marker)
	}
	if m, ok := p.markers[f]; ok {
		return m
	}
	idx := make(map[int][]Marker)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m, ok := ParseMarker(c)
			if !ok {
				continue
			}
			m.Line = p.Fset.Position(c.Pos()).Line
			idx[m.Line] = append(idx[m.Line], m)
		}
	}
	p.markers[f] = idx
	return idx
}

// Suppressed reports whether a diagnostic at pos is waived by a
// //rths:<key> <reason> marker. The suppression is statement-scoped:
// only a marker trailing the same line, or sitting alone on the line
// directly above, is honored — never a file- or function-level one.
// A marker with an empty reason suppresses nothing (the determinism
// analyzer separately reports it as malformed).
func (p *Pass) Suppressed(pos token.Pos, key string) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	idx := p.FileMarkers(f)
	for _, l := range [2]int{line, line - 1} {
		for _, m := range idx[l] {
			if m.Key == key && m.Reason != "" {
				return true
			}
		}
	}
	return false
}

func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// isInteger reports whether t is (an alias of) an integer type.
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isString reports whether t is (an alias of) a string type.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
