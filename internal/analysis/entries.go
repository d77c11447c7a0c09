package analysis

import (
	"go/ast"
	"go/types"
)

// An Entry is one statically-resolved critical-section body: a function
// literal (or declared function) passed to one of the TM entry points.
type Entry struct {
	// CallPkg and Call are where the body is handed to the engine.
	CallPkg *Package
	Call    *ast.CallExpr
	Kind    EntryKind
	// BodyPkg holds the body's syntax; exactly one of Lit/Decl is set.
	BodyPkg *Package
	Lit     *ast.FuncLit
	Decl    *ast.FuncDecl
}

// Body returns the body's statement block.
func (e *Entry) Body() *ast.BlockStmt {
	if e.Lit != nil {
		return e.Lit.Body
	}
	return e.Decl.Body
}

// FuncNode returns the function syntax node (literal or declaration),
// whose extent defines what "captured from outside the closure" means.
func (e *Entry) FuncNode() ast.Node {
	if e.Lit != nil {
		return e.Lit
	}
	return e.Decl
}

// TxParam returns the body's tm.Tx parameter object, or nil.
func (e *Entry) TxParam() *types.Var {
	var ft *ast.FuncType
	if e.Lit != nil {
		ft = e.Lit.Type
	} else {
		ft = e.Decl.Type
	}
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if v, ok := e.BodyPkg.Info.Defs[name].(*types.Var); ok && IsTxType(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// AtomicEntries returns every atomic critical-section body in the program
// whose syntax lives in pkg, regardless of which package enters it. Bodies
// are deduplicated, so a named function passed to Mutex.Do from several
// call sites is analyzed once and diagnostics attach to its declaration.
// Synchronized bodies are excluded: they run irrevocably and may perform
// irrevocable actions by design.
func AtomicEntries(pkg *Package) []*Entry {
	var out []*Entry
	for _, e := range pkg.Prog.entries() {
		if e.BodyPkg == pkg && e.Kind == EntryAtomic {
			out = append(out, e)
		}
	}
	return out
}

// AllEntries returns every critical-section body in the program whose
// syntax lives in pkg — atomic AND synchronized. Synchronized bodies run
// serially and irrevocably, so most analyzers exempt them, but waiting
// there stalls every policy behind the global serial lock; txsafe checks
// both kinds for waits.
func AllEntries(pkg *Package) []*Entry {
	var out []*Entry
	for _, e := range pkg.Prog.entries() {
		if e.BodyPkg == pkg {
			out = append(out, e)
		}
	}
	return out
}

// entries scans the whole program once and caches the result.
func (prog *Program) entryList() []*Entry {
	var list []*Entry
	seen := make(map[ast.Node]bool)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				bodyExpr, kind, ok := pkg.AtomicEntry(call)
				if !ok {
					return true
				}
				bpkg, lit, decl := pkg.BodyFunc(bodyExpr)
				if bpkg == nil {
					return true
				}
				var key ast.Node
				if lit != nil {
					key = lit
				} else {
					key = decl
				}
				if seen[key] {
					return true
				}
				seen[key] = true
				list = append(list, &Entry{
					CallPkg: pkg, Call: call, Kind: kind,
					BodyPkg: bpkg, Lit: lit, Decl: decl,
				})
				return true
			})
		}
	}
	return list
}

func (prog *Program) entries() []*Entry {
	if prog.entryCache == nil {
		prog.entryCache = prog.entryList()
		if prog.entryCache == nil {
			prog.entryCache = []*Entry{}
		}
	}
	return prog.entryCache
}
