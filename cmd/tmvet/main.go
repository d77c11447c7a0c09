// Command tmvet is the TLE stack's transaction-safety vet: a
// multichecker driving the analyzers in internal/analysis over the
// module, the static substitute for the TM TS enforcement the paper gets
// from GCC (see DESIGN.md for the mapping).
//
// Usage:
//
//	tmvet [-C dir] [-run txsafe,txpure] [flags] [packages]
//
// Packages default to ./... relative to the module directory. Exit
// status is 1 when any diagnostic is reported, 2 on usage or load
// errors. Diagnostics use the repo-wide "position: rule: message" format
// shared with lockcheck's dynamic report, and are suppressed per line by
// //gotle:allow directives (see package analysis). Whatever -run selects,
// an allow naming none of the four registered rules is reported under
// the rule "allow".
//
// Beyond the basic run:
//
//	-json               emit diagnostics as a JSON array (internal/diagfmt.Record)
//	-fix                apply suggested fixes to the source files in place
//	-timing             print the effect-summary cache and per-analyzer wall clock
package main

import (
	"flag"
	"fmt"
	"os"
	"path"
	"slices"
	"sort"
	"strings"

	"gotle/internal/analysis"
	"gotle/internal/analysis/falseshare"
	"gotle/internal/analysis/hotalloc"
	"gotle/internal/analysis/tmflow"
	"gotle/internal/analysis/txpure"
	"gotle/internal/analysis/txsafe"
	"gotle/internal/diagfmt"
)

var analyzers = []*analysis.Analyzer{
	txsafe.Analyzer,
	txpure.Analyzer,
	hotalloc.Analyzer,
	falseshare.Analyzer,
}

// allowCheck runs with every selection and knows every registered rule,
// so `-run txsafe` does not flag an allow for hotalloc.
var allowCheck = analysis.UnknownAllows(analyzers)

// selectAnalyzers resolves the -run flag: a comma-separated list of
// names or path.Match globs ("tx*,hotalloc"). A pattern matching no
// analyzer is an error naming the valid set.
func selectAnalyzers(spec string) ([]*analysis.Analyzer, error) {
	var selected []*analysis.Analyzer
	chosen := make(map[string]bool)
	for _, pat := range strings.Split(spec, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		matched := false
		for _, a := range analyzers {
			ok, err := path.Match(pat, a.Name)
			if err != nil {
				return nil, fmt.Errorf("bad -run pattern %q: %v", pat, err)
			}
			if !ok {
				continue
			}
			matched = true
			if !chosen[a.Name] {
				chosen[a.Name] = true
				selected = append(selected, a)
			}
		}
		if !matched {
			names := make([]string, len(analyzers))
			for i, a := range analyzers {
				names[i] = a.Name
			}
			sort.Strings(names)
			return nil, fmt.Errorf("no analyzer matches %q; valid analyzers: %s",
				pat, strings.Join(names, ", "))
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("-run %q selects no analyzers", spec)
	}
	return selected, nil
}

func main() {
	dir := flag.String("C", ".", "module directory to analyze")
	run := flag.String("run", "", "comma-separated subset of analyzers to run (default all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source files")
	timing := flag.Bool("timing", false, "print per-analyzer wall-clock and effect-cache breakdown to stderr after the run")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *run != "" {
		var err error
		selected, err = selectAnalyzers(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmvet: %v\n", err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	prog, err := analysis.LoadModule(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmvet: %v\n", err)
		os.Exit(2)
	}

	diags, timings, err := analysis.RunTimed(prog, prog.Packages, slices.Concat(selected, []*analysis.Analyzer{allowCheck}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmvet: %v\n", err)
		os.Exit(2)
	}
	if *timing {
		hits, misses := tmflow.EffectCacheStats()
		rate := 0.0
		if total := hits + misses; total > 0 {
			rate = 100 * float64(hits) / float64(total)
		}
		fmt.Fprintf(os.Stderr, "tmvet: effect-summary cache: %d hits, %d misses (%.1f%% hit rate)\n", hits, misses, rate)
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "tmvet: %-12s %8.1fms  %d finding(s)\n",
				t.Name, float64(t.Wall.Microseconds())/1000, t.Findings)
		}
	}

	if *fix {
		fixed, err := analysis.ApplyFixes(prog.Fset, diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmvet: %v\n", err)
			os.Exit(2)
		}
		for name, content := range fixed {
			if err := os.WriteFile(name, content, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "tmvet: %v\n", err)
				os.Exit(2)
			}
			fmt.Printf("tmvet: fixed %s\n", diagfmt.Rel(name))
		}
		// Findings with fixes are resolved; the rest still stand.
		remaining := diags[:0]
		for _, d := range diags {
			if len(d.Fixes) == 0 {
				remaining = append(remaining, d)
			}
		}
		diags = remaining
	}

	if *jsonOut {
		records := make([]diagfmt.Record, 0, len(diags))
		for _, d := range diags {
			pos := prog.Fset.Position(d.Pos)
			rec := diagfmt.Record{
				File: diagfmt.Rel(pos.Filename), Line: pos.Line, Col: pos.Column,
				Rule: d.Rule, Message: d.Message,
			}
			if len(d.Fixes) > 0 {
				rec.Fix = d.Fixes[0].Message
			}
			records = append(records, rec)
		}
		if err := diagfmt.EncodeJSON(os.Stdout, records); err != nil {
			fmt.Fprintf(os.Stderr, "tmvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(analysis.Format(prog.Fset, d))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
