// Package analysistest runs the tmvet analyzers over source fixtures and
// checks their diagnostics against expectations written in the fixtures
// themselves, in the style of golang.org/x/tools/go/analysis/analysistest
// (self-hosted, like the framework it tests).
//
// An expectation is a comment on the line the diagnostic is reported at:
//
//	total += n // want txpure:"double-counts on retry"
//
// The rule name qualifies the expectation, so one fixture can be shared
// by several analyzers (the cross-pass fixtures reproduce whole-listing
// shapes from the paper and carry wants for every rule they trip). The
// quoted pattern is a regular expression matched against the diagnostic
// message.
//
// The harness has teeth in both directions: a diagnostic with no matching
// want fails the test, and a want no diagnostic matched fails the test —
// so disabling a check, or breaking its detection, turns its fixture red.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gotle/internal/analysis"
)

var (
	loadOnce sync.Once
	shared   *analysis.Program
	loadErr  error
)

// Program returns a module-wide program shared by all tests in the
// process. Loading type-checks every package once (a few seconds); each
// fixture is then added to it incrementally, which also lets fixtures
// import the real gotle packages.
func Program(t *testing.T) *analysis.Program {
	t.Helper()
	loadOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			loadErr = err
			return
		}
		shared, loadErr = analysis.LoadModule(root, "./...")
	})
	if loadErr != nil {
		t.Fatalf("loading module program: %v", loadErr)
	}
	return shared
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysistest: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Run type-checks the fixture package in dir (e.g. "testdata/src/basic"),
// applies the analyzers to it, and compares diagnostics against the
// fixture's // want comments.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	prog := Program(t)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := prog.AddDir(abs, "fixture/"+filepath.Base(abs))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run(prog, []*analysis.Package{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, prog, pkg)
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.matched || w.file != pos.Filename || w.line != pos.Line || w.rule != d.Rule {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", analysis.Format(prog.Fset, d))
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s diagnostic matched %q", filepath.Base(w.file), w.line, w.rule, w.re)
		}
	}
}

// RunFix type-checks the fixture package in dir, applies the analyzers,
// applies every suggested fix the diagnostics carry, and compares the
// result byte-for-byte against golden files (fixture.go.golden next to
// fixture.go). Teeth in both directions: a golden with no fixes to
// produce it fails, and fixed output with no golden (or that differs from
// it) fails — so both losing a fix and drifting its output turn the
// fixture red.
func RunFix(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	prog := Program(t)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := prog.AddDir(abs, "fixture/"+filepath.Base(abs))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run(prog, []*analysis.Package{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := analysis.ApplyFixes(prog.Fset, diags)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}

	goldens, err := filepath.Glob(filepath.Join(abs, "*.go.golden"))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, golden := range goldens {
		src := golden[:len(golden)-len(".golden")]
		seen[src] = true
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := fixed[src]
		if !ok {
			t.Errorf("%s: golden exists but the analyzers suggested no fixes for %s", filepath.Base(golden), filepath.Base(src))
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s: fixed output differs from golden:\n--- got ---\n%s\n--- want ---\n%s", filepath.Base(src), got, want)
		}
	}
	for name := range fixed {
		if !seen[name] {
			t.Errorf("%s: fixes were suggested but no %s.golden exists", filepath.Base(name), filepath.Base(name))
		}
	}
}

type want struct {
	file    string
	line    int
	rule    string
	re      *regexp.Regexp
	matched bool
}

// wantRE matches one rule:"pattern" clause of a want comment.
var wantRE = regexp.MustCompile(`([a-zA-Z0-9_]+):"((?:[^"\\]|\\.)*)"`)

func collectWants(t *testing.T, prog *analysis.Program, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				body, ok := cutWant(c.Text)
				if !ok {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				clauses := wantRE.FindAllStringSubmatch(body, -1)
				if len(clauses) == 0 {
					t.Errorf("%s:%d: malformed want comment %q", filepath.Base(pos.Filename), pos.Line, c.Text)
					continue
				}
				for _, m := range clauses {
					pat, err := strconv.Unquote(`"` + m[2] + `"`)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %q: %v", filepath.Base(pos.Filename), pos.Line, m[2], err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", filepath.Base(pos.Filename), pos.Line, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, rule: m[1], re: re})
				}
			}
		}
	}
	return wants
}

// cutWant returns the clause text of a "// want ..." comment, or of a
// want trailing a directive in the same comment, for diagnostics reported
// at the directive itself ("//gotle:allow rule reason // want ...").
func cutWant(text string) (string, bool) {
	if strings.HasPrefix(text, "//gotle:") {
		_, rest, ok := strings.Cut(text, " // want ")
		return rest, ok && rest != ""
	}
	for _, prefix := range []string{"// want ", "//want "} {
		if rest, ok := strings.CutPrefix(text, prefix); ok && rest != "" {
			return rest, true
		}
	}
	return "", false
}
