package tmflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"gotle/internal/analysis"
	"gotle/internal/lockcheck"
)

// A LockID is the static identity of one tle.Mutex value.
type LockID struct {
	// Key is the canonical identity used for order comparisons: two
	// receiver expressions with the same Key denote (an approximation of)
	// the same lock. Field locks key on the field object, package and
	// local variables on the variable object; unresolvable expressions
	// key on their source position, which keeps distinct sites distinct.
	Key string
	// Pretty is the human-readable spelling used in diagnostics: the
	// receiver expression, plus the NewMutex name@site when resolved.
	Pretty string
	// Site, when non-empty, is lockcheck.SiteKey of the NewMutex call that
	// creates this lock — the same string the dynamic checker records via
	// tle.LockNamer, so static and runtime findings name the lock
	// identically.
	Site string
}

// LockOf resolves the receiver expression of a Mutex.Do/Await
// call to a lock identity. f, when non-nil, supplies reaching-definition
// facts for resolving local variables to their NewMutex creation site; it
// may be nil when the enclosing function's flow has not been built.
func LockOf(pkg *analysis.Package, f *Func, recv ast.Expr) LockID {
	recv = ast.Unparen(recv)
	pretty := exprString(recv)
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				return LockID{Key: "field " + fieldKey(sel, v), Pretty: pretty}
			}
		}
		// Package-qualified variable (otherpkg.Mu).
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && !v.IsField() {
			return packageVarLock(pkg, v, pretty)
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok {
			if v.Parent() == pkg.Types.Scope() {
				return packageVarLock(pkg, v, pretty)
			}
			id := LockID{Key: "var " + varKey(pkg, v), Pretty: pretty}
			if f != nil {
				if site, name := newMutexSite(pkg, f.SingleDef(v)); site != "" {
					id.Site = site
					id.Pretty = name + "@" + site
				}
			}
			return id
		}
	}
	pos := pkg.Prog.Fset.Position(recv.Pos())
	return LockID{Key: fmt.Sprintf("expr %s:%d:%d", pos.Filename, pos.Line, pos.Column), Pretty: pretty}
}

// packageVarLock identifies a package-level mutex variable, resolving its
// initializer to a NewMutex site when the declaration spells one out.
func packageVarLock(pkg *analysis.Package, v *types.Var, pretty string) LockID {
	id := LockID{Key: "var " + varKey(pkg, v), Pretty: pretty}
	dpkg := pkg
	if v.Pkg() != nil && v.Pkg().Path() != pkg.Path {
		if p := pkg.Prog.Lookup(v.Pkg().Path()); p != nil {
			dpkg = p
		}
	}
	for _, file := range dpkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, name := range vs.Names {
					if dpkg.Info.Defs[name] != v {
						continue
					}
					if site, nm := newMutexSite(dpkg, vs.Values[i]); site != "" {
						id.Site = site
						id.Pretty = nm + "@" + site
					}
					return id
				}
			}
		}
	}
	return id
}

// newMutexSite recognizes a (possibly parenthesized) Runtime.NewMutex call
// and returns its lockcheck.SiteKey plus the mutex's declared name.
func newMutexSite(pkg *analysis.Package, e ast.Expr) (site, name string) {
	if e == nil {
		return "", ""
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	fn := pkg.FuncOf(call)
	if fn == nil || !analysis.IsMethod(fn, analysis.PkgTLE, "Runtime", "NewMutex") {
		return "", ""
	}
	pos := pkg.Prog.Fset.Position(call.Pos())
	name = "?"
	if len(call.Args) == 1 {
		if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name = lit.Value[1 : len(lit.Value)-1]
		}
	}
	return lockcheck.SiteKey(pos.Filename, pos.Line), name
}

func fieldKey(sel *types.Selection, v *types.Var) string {
	recv := sel.Recv()
	if ptr, ok := types.Unalias(recv).(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := types.Unalias(recv).(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name() + "." + v.Name()
		}
		return obj.Name() + "." + v.Name()
	}
	if v.Pkg() != nil {
		return v.Pkg().Path() + "." + v.Name()
	}
	return v.Name()
}

func varKey(pkg *analysis.Package, v *types.Var) string {
	path := ""
	if v.Pkg() != nil {
		path = v.Pkg().Path() + "."
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return path + v.Name()
	}
	// Local: qualify by declaration position so shadowed names stay
	// distinct while every use of the same variable agrees.
	pos := pkg.Prog.Fset.Position(v.Pos())
	return fmt.Sprintf("%s%s@%s:%d", path, v.Name(), pos.Filename, pos.Line)
}

// exprString renders simple receiver expressions (idents, selectors,
// index/star/paren combinations) for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "lock"
}
