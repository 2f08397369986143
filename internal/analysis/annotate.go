package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The annotation grammar. Annotations are ordinary line comments whose
// text starts with "alpacomm:":
//
//	//alpacomm:hotpath
//	    On (or in the doc comment of) a function declaration: the
//	    function's body is subject to hotalloc checking.
//
//	//alpacomm:allow NAME[,NAME...] [reason]
//	    Exempts the annotated line — or, on a function declaration, the
//	    whole function — from each named analyzer.
//
// Placement: an exemption applies to a diagnostic when the annotation
// sits on the diagnostic's line, on the line directly above it, or on the
// enclosing function declaration (its doc comment or the line above the
// func keyword). Line-based matching keeps the rule predictable — the
// annotation travels with the statement it excuses.

const annotationPrefix = "alpacomm:"

// annotationIndex is the per-package view of every //alpacomm: comment.
type annotationIndex struct {
	// lineTags maps file name -> line -> analyzer names allowed there.
	lineTags map[string]map[int][]string
	// funcs records each function declaration's body span and its
	// function-level allowances (from doc comments or the decl line).
	funcs []funcAnnotation
}

type funcAnnotation struct {
	file       string
	start, end token.Pos
	allowed    []string
	hot        bool
}

// parseAnnotation decodes one comment's annotation content: the analyzer
// names it allows and whether it marks a hot path. Unknown alpacomm:
// directives are ignored (they may belong to a future suite version).
func parseAnnotation(text string) (allowed []string, hot bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, annotationPrefix) {
		return nil, false
	}
	body := text[len(annotationPrefix):]
	directive := body
	rest := ""
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		directive, rest = body[:i], strings.TrimSpace(body[i+1:])
	}
	switch directive {
	case "hotpath":
		return nil, true
	case "allow":
		names := rest
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			names = rest[:i]
		}
		for _, n := range strings.Split(names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				allowed = append(allowed, n)
			}
		}
		return allowed, false
	}
	return nil, false
}

// buildAnnotationIndex scans every comment in the package once.
func buildAnnotationIndex(fset *token.FileSet, files []*ast.File) *annotationIndex {
	idx := &annotationIndex{lineTags: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				allowed, hot := parseAnnotation(c.Text)
				if len(allowed) == 0 && !hot {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx.lineTags[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					idx.lineTags[pos.Filename] = lines
				}
				if hot {
					lines[pos.Line] = append(lines[pos.Line], "hotpath")
				}
				lines[pos.Line] = append(lines[pos.Line], allowed...)
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fa := funcAnnotation{
				file:  fset.Position(fd.Pos()).Filename,
				start: fd.Pos(),
				end:   fd.Body.End(),
			}
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					allowed, hot := parseAnnotation(c.Text)
					fa.allowed = append(fa.allowed, allowed...)
					fa.hot = fa.hot || hot
				}
			}
			// An annotation on the line directly above the declaration (or
			// its doc comment) also counts as function-level.
			declLine := fset.Position(fd.Pos()).Line
			if fd.Doc != nil {
				declLine = fset.Position(fd.Doc.Pos()).Line
			}
			if lines := idx.lineTags[fa.file]; lines != nil {
				for _, tag := range lines[declLine-1] {
					if tag == "hotpath" {
						fa.hot = true
					} else {
						fa.allowed = append(fa.allowed, tag)
					}
				}
			}
			idx.funcs = append(idx.funcs, fa)
		}
	}
	return idx
}

// allowed reports whether a diagnostic of analyzer name at pos is
// exempted by an annotation.
func (idx *annotationIndex) allowed(fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	if lines := idx.lineTags[p.Filename]; lines != nil {
		for _, l := range []int{p.Line, p.Line - 1} {
			for _, tag := range lines[l] {
				if tag == name {
					return true
				}
			}
		}
	}
	for i := range idx.funcs {
		fa := &idx.funcs[i]
		if fa.file != p.Filename || pos < fa.start || pos > fa.end {
			continue
		}
		for _, tag := range fa.allowed {
			if tag == name {
				return true
			}
		}
	}
	return false
}

// hot reports whether the function declaration carries //alpacomm:hotpath.
func (idx *annotationIndex) hot(fset *token.FileSet, fn *ast.FuncDecl) bool {
	file := fset.Position(fn.Pos()).Filename
	for i := range idx.funcs {
		fa := &idx.funcs[i]
		if fa.file == file && fa.start == fn.Pos() {
			return fa.hot
		}
	}
	return false
}
