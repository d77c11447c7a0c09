// Package analysis is a self-hosted static-analysis framework for the TLE
// stack, modelled on golang.org/x/tools/go/analysis but built entirely on
// the standard library (go/ast, go/types, and the go command) so the repo
// stays dependency-free.
//
// The paper's programming model relies on GCC enforcing the C++ TM
// Technical Specification at compile time: atomic blocks may only call
// transaction-safe code, and TM.NoQuiesce is only sound for transactions
// that do not privatize. Go has no such compiler support, so this package
// supplies it as a vet-style suite. The four analyzers live in
// subpackages and are driven together by cmd/tmvet: one per question a
// critical section raises (txsafe: what may it call or wait on; txpure:
// what may it write or publish outside TM memory) and the serving path's
// (hotalloc, falseshare). Races on Go memory are left to `go test -race`,
// and two-phase locking to the lockcheck tracer. Races on TM memory come
// from a NoQuiesce in a transaction that privatizes, which txsafe flags.
// DESIGN.md maps each analyzer to the compiler check it substitutes for.
//
// Three source directives interact with the suite:
//
//	//gotle:allow rule[,rule...] [reason]
//
// on (or immediately above) a flagged line suppresses the named rules'
// diagnostics at that line. Every suppression should carry a reason; the
// annotated sites in examples/ and internal/x265sim double as teaching
// cases for the paper's Listing 1-3 hazards. An allow naming a rule the
// driver does not register is itself a finding (UnknownAllows).
//
//	//gotle:hotpath [reason]
//
// in a function's doc comment marks it a root of the allocation-free
// serving path: hotalloc verifies the function and everything it can
// statically reach allocate nothing, making the runtime AllocsPerRun
// gate (make serve-smoke) explainable per site.
//
//	//gotle:coldpath [reason]
//
// in a function's doc comment marks a deliberately unoptimized path
// (error replies, stats rendering) that hotalloc treats as opaque.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"

	"gotle/internal/diagfmt"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and //gotle:allow.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// the pass.
	Run func(*Pass) error
}

// A Pass connects an Analyzer run to one package of the loaded program.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Rule    string
	Message string
	// Fixes, when non-empty, are machine-applicable corrections for the
	// finding; `tmvet -fix` applies them (see fix.go).
	Fixes []SuggestedFix
}

// A SuggestedFix is one self-contained correction: applying all its edits
// resolves the diagnostic.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// A TextEdit replaces the source range [Pos, End) with NewText.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// Reportf records a finding at pos. Findings suppressed by a
// //gotle:allow directive are dropped here, centrally, so the driver and
// the test harness see identical output.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records a fully-formed finding (the Rule field is overwritten
// with the analyzer's name). Suppression applies exactly as in Reportf.
func (p *Pass) Report(d Diagnostic) {
	if p.Prog.suppressed(p.Analyzer.Name, d.Pos) {
		return
	}
	d.Rule = p.Analyzer.Name
	*p.diags = append(*p.diags, d)
}

// An AnalyzerTiming is one analyzer's aggregate cost over a Run: total
// wall-clock across all packages and the number of findings it reported
// (pre-dedup). The driver's -timing flag prints these so the lint
// budget stays attributable when a pass regresses.
type AnalyzerTiming struct {
	Name     string
	Wall     time.Duration
	Findings int
}

// Run applies each analyzer to each package and returns all surviving
// diagnostics sorted by position. Packages must belong to prog.
func Run(prog *Program, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunTimed(prog, pkgs, analyzers)
	return diags, err
}

// RunTimed is Run plus per-analyzer wall-clock accounting, in the order
// the analyzers were given.
func RunTimed(prog *Program, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming, error) {
	var diags []Diagnostic
	timings := make([]AnalyzerTiming, len(analyzers))
	for i, a := range analyzers {
		timings[i].Name = a.Name
	}
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			before := len(diags)
			start := time.Now()
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			timings[i].Wall += time.Since(start)
			timings[i].Findings += len(diags) - before
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		// Shortest message first: when the same site is reached both
		// directly and through a call chain, the direct (trail-free)
		// finding is the one worth keeping.
		if len(diags[i].Message) != len(diags[j].Message) {
			return len(diags[i].Message) < len(diags[j].Message)
		}
		return diags[i].Message < diags[j].Message
	})
	// A site reachable from several entries (or from an entry that is
	// itself reachable, as in recursive drivers) is reported once per
	// walk; collapse to one diagnostic per (position, rule).
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d.Pos == diags[i-1].Pos && d.Rule == diags[i-1].Rule {
			continue
		}
		out = append(out, d)
	}
	return out, timings, nil
}

// UnknownAllows returns the pseudo-analyzer "allow", which reports every
// //gotle:allow directive naming a rule outside registry. Such an allow
// suppresses nothing, and one naming a deleted rule would otherwise outlive
// it unnoticed. A driver passes its full registry, whatever subset it runs.
func UnknownAllows(registry []*Analyzer) *Analyzer {
	known := map[string]bool{"all": true}
	for _, a := range registry {
		known[a.Name] = true
	}
	return &Analyzer{
		Name: "allow",
		Doc:  "flag //gotle:allow directives that name no registered rule",
		Run: func(pass *Pass) error {
			for _, file := range pass.Pkg.Files {
				for _, cg := range file.Comments {
					for _, c := range cg.List {
						rules, _ := allowedRules(c.Text)
						for _, r := range rules {
							if !known[r] {
								pass.Reportf(c.Pos(), "//gotle:allow names %q, which is not a tmvet rule", r)
							}
						}
					}
				}
			}
			return nil
		},
	}
}

// Format renders a diagnostic in the repo-wide "position: rule: message"
// line format (package diagfmt), with the file path shortened relative to
// the working directory.
func Format(fset *token.FileSet, d Diagnostic) string {
	pos := fset.Position(d.Pos)
	loc := fmt.Sprintf("%s:%d:%d", diagfmt.Rel(pos.Filename), pos.Line, pos.Column)
	return diagfmt.Line(loc, d.Rule, d.Message)
}

// ---- type helpers shared by the analyzers ----

// IsNamed reports whether t (after unaliasing and pointer-stripping is NOT
// applied — callers strip what they mean to strip) is the named or aliased
// type pkgpath.name.
func IsNamed(t types.Type, pkgpath, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgpath && obj.Name() == name
}

// FuncOf resolves the *types.Func a call expression statically invokes:
// a declared function, a method (including interface methods), or nil for
// calls of builtins, conversions, and anonymous function values.
func (pkg *Package) FuncOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// RecvType returns the package path and type name of fn's receiver
// ("", "" for plain functions), looking through pointers.
func RecvType(fn *types.Func) (pkgpath, name string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() == nil {
			return "", obj.Name()
		}
		return obj.Pkg().Path(), obj.Name()
	case *types.Interface:
		return "", ""
	}
	return "", ""
}

// IsMethod reports whether fn is the method pkgpath.recv.name (receiver
// pointer-ness ignored). It matches both concrete and interface methods.
func IsMethod(fn *types.Func, pkgpath, recv, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != pkgpath {
		return false
	}
	rp, rn := RecvType(fn)
	if rn == "" {
		// Interface methods report no receiver type name; fall back to the
		// qualified FullName, which spells it out.
		return strings.Contains(fn.FullName(), pkgpath+"."+recv+")") ||
			strings.HasPrefix(fn.FullName(), "("+pkgpath+"."+recv+")")
	}
	return rp == pkgpath && rn == recv
}

// IsGlobal reports whether v is a package-level variable of pkg.
func (pkg *Package) IsGlobal(v *types.Var) bool {
	return !v.IsField() && v.Parent() == pkg.Types.Scope()
}

// AssignedValue returns the right-hand expression feeding the i-th target
// of as: its own, or the one multi-value expression feeding every target.
func AssignedValue(as *ast.AssignStmt, i int) ast.Expr {
	switch {
	case len(as.Rhs) == len(as.Lhs):
		return as.Rhs[i]
	case len(as.Rhs) == 1:
		return as.Rhs[0]
	}
	return nil
}

// RootIdent returns the base identifier of a selector/index/deref chain,
// or nil (e.g. when the base is a call result).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
