package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// A Program is a fully type-checked load of the module's packages (plus
// any test fixtures added with AddDir). All analyzers in one tmvet or test
// run share one Program, which is what lets txsafe walk call graphs
// across package boundaries without a fact store.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // module-local packages in dependency order

	byPath   map[string]*Package
	export   map[string]string // stdlib import path -> export data file
	std      types.Importer
	gc       types.Importer
	fnDecls  map[*types.Func]funcDecl
	hot      map[*types.Func]bool
	cold     map[*types.Func]bool
	suppress map[string]map[int][]string // filename -> line -> allowed rules

	entryCache []*Entry // lazy; invalidated when packages are added
}

// A Package is one type-checked package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	Prog *Program
}

type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

type listPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Error      *struct{ Err string }
}

// LoadModule loads the module rooted at dir, resolving patterns
// (e.g. "./...") with the go command. Module-local packages are parsed and
// type-checked from source; standard-library dependencies are imported
// from compiler export data (`go list -export`), which works offline and
// takes ~2s instead of re-type-checking the standard library.
func LoadModule(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Standard,Export,GoFiles,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// CGO_ENABLED=0 keeps every dependency loadable as pure Go.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errBuf.String())
	}

	prog := newProgram()
	var local []*listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Standard {
			if p.Export != "" {
				prog.export[p.ImportPath] = p.Export
			}
			continue
		}
		pp := p
		local = append(local, &pp)
	}

	// go list -deps emits dependencies before dependents, so a single
	// in-order sweep type-checks cleanly.
	for _, p := range local {
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		if _, err := prog.addPackage(p.ImportPath, p.Dir, files); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

func newProgram() *Program {
	fset := token.NewFileSet()
	prog := &Program{
		Fset:     fset,
		byPath:   make(map[string]*Package),
		export:   make(map[string]string),
		std:      importer.ForCompiler(fset, "source", nil),
		fnDecls:  make(map[*types.Func]funcDecl),
		hot:      make(map[*types.Func]bool),
		cold:     make(map[*types.Func]bool),
		suppress: make(map[string]map[int][]string),
	}
	prog.gc = importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		ef, ok := prog.export[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(ef)
	})
	return prog
}

// AddDir parses and type-checks every non-test .go file in dir as the
// package importPath, resolving imports first against already-loaded
// packages (so fixtures can import the real gotle packages) and then the
// standard library. Used by the analysistest harness.
func (prog *Program) AddDir(dir, importPath string) (*Package, error) {
	if pkg, ok := prog.byPath[importPath]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return prog.addPackage(importPath, dir, files)
}

// Import implements types.Importer over the loaded program: module-local
// packages come from the in-progress load, the standard library from
// export data when available and from source otherwise.
func (prog *Program) Import(path string) (*types.Package, error) {
	if pkg, ok := prog.byPath[path]; ok {
		return pkg.Types, nil
	}
	if _, ok := prog.export[path]; ok {
		return prog.gc.Import(path)
	}
	return prog.std.Import(path)
}

func (prog *Program) addPackage(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, f := range filenames {
		af, err := parser.ParseFile(prog.Fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: prog,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, prog.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Files: files,
		Types: tpkg,
		Info:  info,
		Prog:  prog,
	}
	prog.byPath[importPath] = pkg
	prog.Packages = append(prog.Packages, pkg)
	prog.indexPackage(pkg)
	prog.entryCache = nil
	return pkg, nil
}

// indexPackage records the package's function declarations, their
// hotpath/coldpath directives, and //gotle:allow suppressions.
func (prog *Program) indexPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			prog.fnDecls[fn] = funcDecl{pkg: pkg, decl: fd}
			if hasDirective(fd.Doc, "gotle:hotpath") {
				prog.hot[fn] = true
			}
			if hasDirective(fd.Doc, "gotle:coldpath") {
				prog.cold[fn] = true
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rules, ok := allowedRules(c.Text)
				if !ok {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				m := prog.suppress[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					prog.suppress[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], rules...)
			}
		}
	}
}

// DeclOf returns the syntax of fn's declaration, and the package it was
// declared in, if fn is part of the loaded program.
func (prog *Program) DeclOf(fn *types.Func) (*Package, *ast.FuncDecl) {
	fd, ok := prog.fnDecls[fn]
	if !ok {
		return nil, nil
	}
	return fd.pkg, fd.decl
}

// Hotpath reports whether fn's doc comment carries //gotle:hotpath: the
// function is a root of the allocation-free serving path and hotalloc
// verifies it (and everything it can statically reach) allocation-free.
func (prog *Program) Hotpath(fn *types.Func) bool { return prog.hot[fn] }

// Coldpath reports whether fn's doc comment carries //gotle:coldpath: a
// deliberately unoptimized path (error replies, stats rendering) that
// hotalloc treats as opaque instead of walking into, with a written
// justification expected alongside the directive.
func (prog *Program) Coldpath(fn *types.Func) bool { return prog.cold[fn] }

// Lookup returns the loaded package with the given import path, or nil.
func (prog *Program) Lookup(path string) *Package { return prog.byPath[path] }

// suppressed reports whether rule is allowed (suppressed) at pos: a
// //gotle:allow directive naming the rule sits on the same line or the
// line directly above.
func (prog *Program) suppressed(rule string, pos token.Pos) bool {
	p := prog.Fset.Position(pos)
	m := prog.suppress[p.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, r := range m[line] {
			if r == rule || r == "all" {
				return true
			}
		}
	}
	return false
}

// allowedRules parses a //gotle:allow directive comment, returning the
// rule names it suppresses.
func allowedRules(comment string) ([]string, bool) {
	text, ok := strings.CutPrefix(comment, "//gotle:allow")
	if !ok {
		return nil, false
	}
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return nil, false
	}
	return strings.Split(fields[0], ","), true
}

func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//"+name || strings.HasPrefix(c.Text, "//"+name+" ") {
			return true
		}
	}
	return false
}
