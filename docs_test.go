package gotle_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// experimentsCap is EXPERIMENTS.md's size bound: one present-tense section
// per mechanism fits in it, a diary of every past run does not.
const experimentsCap = 60_000

// experimentsRef matches a citation of an EXPERIMENTS.md section:
// EXPERIMENTS "…", EXPERIMENTS.md "…" or EXPERIMENTS.md, "…". The quoted
// text names a heading by a prefix of it.
var experimentsRef = regexp.MustCompile(`EXPERIMENTS(?:\.md)?,? "([^"]+)"`)

// TestExperimentsSize holds EXPERIMENTS.md at its cap.
func TestExperimentsSize(t *testing.T) {
	b, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > experimentsCap {
		t.Errorf("EXPERIMENTS.md is %d bytes, over its %d-byte cap", len(b), experimentsCap)
	}
}

// TestExperimentsReferences: every section the docs and the Go comments
// cite by name is a heading of EXPERIMENTS.md, so renaming or deleting a
// section fails here until its citations follow. CHANGES.md and
// ROADMAP.md are history and are not scanned.
func TestExperimentsReferences(t *testing.T) {
	b, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(b), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			headings = append(headings, h)
		} else if h, ok := strings.CutPrefix(line, "### "); ok {
			headings = append(headings, h)
		}
	}

	texts := map[string]string{} // file → its prose, lines joined
	for _, f := range []string{"DESIGN.md", "README.md", "PORTING.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		texts[f] = string(b)
	}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var comments []string
			for _, line := range strings.Split(string(b), "\n") {
				if c, ok := strings.CutPrefix(strings.TrimSpace(line), "//"); ok {
					comments = append(comments, c)
				}
			}
			texts[path] = strings.Join(comments, "\n")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	refs := 0
	for f, text := range texts {
		// A quote that wraps still names one heading.
		text = strings.Join(strings.Fields(text), " ")
		for _, m := range experimentsRef.FindAllStringSubmatch(text, -1) {
			refs++
			if !hasPrefixOf(headings, m[1]) {
				t.Errorf("%s cites EXPERIMENTS.md %q, which begins no heading", f, m[1])
			}
		}
	}
	if refs == 0 {
		t.Error("found no EXPERIMENTS.md citations: the scan is broken")
	}
}

func hasPrefixOf(headings []string, ref string) bool {
	for _, h := range headings {
		if strings.HasPrefix(h, ref) {
			return true
		}
	}
	return false
}
