package repro

// The documentation lint, run as part of tier-1: every package carries
// a package-level doc comment, and every relative link in the markdown
// docs resolves to a real file. CI runs these in the lint job too, so
// a doc regression fails fast.

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goPackageDirs returns every directory in the module that contains
// non-test Go files.
func goPackageDirs(t *testing.T) []string {
	t.Helper()
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && name != "." || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(dirs))
	for d := range dirs {
		out = append(out, d)
	}
	return out
}

// TestEveryPackageDocumented: each package (the 18 internal ones, the
// 3 commands, the examples, and this root) must have a package-level
// doc comment on at least one file — godoc is part of the interface.
func TestEveryPackageDocumented(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range goPackageDirs(t) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		documented := false
		checked := 0
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			checked++
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: %v", filepath.Join(dir, e.Name()), err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if checked > 0 && !documented {
			t.Errorf("package in %s has no package-level doc comment on any file", dir)
		}
	}
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinksResolve: every relative link in README.md and docs/*.md
// points at a file that exists (fragments stripped; external URLs and
// the GitHub-convention badge paths skipped).
func TestDocsLinksResolve(t *testing.T) {
	var mdFiles []string
	for _, glob := range []string{"*.md", "docs/*.md"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		mdFiles = append(mdFiles, m...)
	}
	if len(mdFiles) < 6 {
		t.Fatalf("only found %d markdown files (%v) — glob broken?", len(mdFiles), mdFiles)
	}
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure fragment: same-file anchor
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if rel, err := filepath.Rel(".", resolved); err != nil || strings.HasPrefix(rel, "..") {
				continue // leaves the repo (the ../../actions badge convention)
			}
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", md, m[1], resolved)
			}
		}
	}
}
