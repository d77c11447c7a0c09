package protdom

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"gotle/internal/analysis"
	"gotle/internal/analysis/tmflow"
)

// promoteFix builds the edits replacing every plain site of loc with the
// matching sync/atomic call. It refuses (no fix) unless all sites are
// mechanical: the location is a sized integer, each site is a simple
// read, `x = v` store, or `x++`/`x--`, no site is a slice exposure, and
// each file already imports sync/atomic.
func promoteFix(pass *analysis.Pass, loc *tmflow.Location, plain []*tmflow.Access) (analysis.SuggestedFix, bool) {
	suffix, ok := atomicSuffix(loc.Obj.Type())
	if !ok {
		return analysis.SuggestedFix{}, false
	}
	var edits []analysis.TextEdit
	for _, a := range plain {
		if a.SliceExposure || a.Pkg.Path != pass.Pkg.Path {
			return analysis.SuggestedFix{}, false
		}
		if !importsAtomic(a.Pkg, a.Pos) {
			return analysis.SuggestedFix{}, false
		}
		edit, ok := siteEdit(pass, a, suffix)
		if !ok {
			return analysis.SuggestedFix{}, false
		}
		edits = append(edits, edit)
	}
	// Overlapping edits (a store whose value re-reads the location) are
	// not mechanically promotable.
	for i := range edits {
		for j := range edits {
			if i != j && edits[i].Pos >= edits[j].Pos && edits[i].Pos < edits[j].End {
				return analysis.SuggestedFix{}, false
			}
		}
	}
	return analysis.SuggestedFix{
		Message: fmt.Sprintf("promote plain accesses of %s to sync/atomic", loc.Pretty),
		Edits:   edits,
	}, true
}

// siteEdit rewrites one plain site: a write statement (`x = v` →
// atomic.Store*, `x++` → atomic.Add*) or a read expression (`x` →
// atomic.Load*(&x)).
func siteEdit(pass *analysis.Pass, a *tmflow.Access, suffix string) (analysis.TextEdit, bool) {
	target, ok := a.Node.(ast.Expr)
	if !ok {
		return analysis.TextEdit{}, false
	}
	x := render(pass.Prog.Fset, target)
	if !a.Write {
		return analysis.TextEdit{
			Pos: target.Pos(), End: target.End(),
			NewText: fmt.Sprintf("atomic.Load%s(&%s)", suffix, x),
		}, true
	}
	stmt := enclosingSimpleStmt(a.Pkg, target.Pos())
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 || ast.Unparen(s.Lhs[0]) != target {
			return analysis.TextEdit{}, false
		}
		return analysis.TextEdit{
			Pos: s.Pos(), End: s.End(),
			NewText: fmt.Sprintf("atomic.Store%s(&%s, %s)", suffix, x, render(pass.Prog.Fset, s.Rhs[0])),
		}, true
	case *ast.IncDecStmt:
		if ast.Unparen(s.X) != target {
			return analysis.TextEdit{}, false
		}
		delta := "1"
		if s.Tok == token.DEC {
			delta = "^" + typeLiteralZero(suffix)
		}
		return analysis.TextEdit{
			Pos: s.Pos(), End: s.End(),
			NewText: fmt.Sprintf("atomic.Add%s(&%s, %s)", suffix, x, delta),
		}, true
	}
	return analysis.TextEdit{}, false
}

// typeLiteralZero renders the two's-complement -1 delta for unsigned
// atomic Adds (`^T(0)`), per the sync/atomic documentation.
func typeLiteralZero(suffix string) string {
	return strings.ToLower(suffix[:1]) + suffix[1:] + "(0)"
}

// enclosingSimpleStmt finds the innermost assign/incdec statement
// containing pos in pkg's files.
func enclosingSimpleStmt(pkg *analysis.Package, pos token.Pos) ast.Stmt {
	var found ast.Stmt
	for _, file := range pkg.Files {
		if pos < file.Pos() || pos >= file.End() {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil || pos < n.Pos() || pos >= n.End() {
				return false
			}
			switch n.(type) {
			case *ast.AssignStmt, *ast.IncDecStmt:
				found = n.(ast.Stmt)
			}
			return true
		})
	}
	return found
}

// atomicSuffix maps a location's type to the sync/atomic function-name
// suffix, or refuses for types without a Load/Store/Add family.
func atomicSuffix(t types.Type) (string, bool) {
	b, ok := types.Unalias(t.Underlying()).(*types.Basic)
	if !ok {
		return "", false
	}
	switch b.Kind() {
	case types.Uint64:
		return "Uint64", true
	case types.Int64:
		return "Int64", true
	case types.Uint32:
		return "Uint32", true
	case types.Int32:
		return "Int32", true
	case types.Uintptr:
		return "Uintptr", true
	}
	return "", false
}

// importsAtomic reports whether the file containing pos imports
// sync/atomic (needed for the promoted call to compile).
func importsAtomic(pkg *analysis.Package, pos token.Pos) bool {
	for _, file := range pkg.Files {
		if pos < file.Pos() || pos >= file.End() {
			continue
		}
		for _, imp := range file.Imports {
			if imp.Path.Value == `"sync/atomic"` && imp.Name == nil {
				return true
			}
		}
	}
	return false
}

func render(fset *token.FileSet, n ast.Node) string {
	var b strings.Builder
	_ = printer.Fprint(&b, fset, n)
	return b.String()
}
