// Package analysis is the repo's static-analysis suite: a minimal,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic, suggested fixes) plus five
// analyzers that mechanically enforce the invariants the rest of the
// system is built on — byte-identical plans (determinism), the zero-alloc
// serve path (hotalloc), cancellation reaching every blocking layer
// (ctxflow), pooled buffers returning to their pools (pooldiscipline) and
// cache keys covering every identity-bearing field (fingerprint).
//
// The framework is self-contained on purpose: the build environment has
// no module proxy access, so the x/tools analysis driver cannot be
// vendored. Types are shape-compatible with go/analysis where it matters
// (an Analyzer has a Name, a Doc and a Run over a Pass), so migrating to
// the upstream framework later is a mechanical change.
//
// Two source annotations steer the suite (see the README "Static
// analysis" section):
//
//	//alpacomm:hotpath            opt a function into hotalloc checking
//	//alpacomm:allow NAME [why]   exempt a statement/function from the named analyzer
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //alpacomm:allow
	// annotations.
	Name string
	// Doc is the one-paragraph description shown by `alpalint -list`.
	Doc string
	// Run reports diagnostics for one package through pass.Report.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// annotations indexes //alpacomm: comments; built once per package by
	// the driver and shared by every analyzer.
	annotations *annotationIndex

	report func(Diagnostic)
}

// Diagnostic is one finding, with optional mechanical fixes.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos
	Analyzer string
	Message  string
	Fixes    []SuggestedFix
}

// SuggestedFix is one mechanical rewrite that resolves a diagnostic.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
	// NeedImport names a package the rewritten code requires (e.g. "sort");
	// the fixer adds the import if the file lacks it.
	NeedImport string
}

// TextEdit replaces [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// Report emits a diagnostic unless an //alpacomm: annotation at or around
// its position exempts this analyzer. Suppression is centralized here so
// every analyzer honors annotations identically.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	if p.annotations != nil && p.annotations.allowed(p.Fset, d.Pos, p.Analyzer.Name) {
		return
	}
	p.report(d)
}

// Reportf is Report with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, End: pos, Message: fmt.Sprintf(format, args...)})
}

// HotFunc reports whether fn is annotated //alpacomm:hotpath.
func (p *Pass) HotFunc(fn *ast.FuncDecl) bool {
	return p.annotations != nil && p.annotations.hot(p.Fset, fn)
}

// RunAnalyzers runs every analyzer over the package and returns the
// surviving (non-suppressed) diagnostics in position order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	idx := buildAnnotationIndex(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			TypesInfo:   pkg.Info,
			annotations: idx,
			report:      func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, HotAlloc, CtxFlow, PoolDiscipline, Fingerprint}
}

// ByName resolves an analyzer by name.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
