package actfort_test

// The documentation gate CI's docs job runs: a markdown link check
// over the README and docs tree, a check that every markdown file a Go
// comment names exists, and an exported-identifier
// doc-comment check (the revive `exported` rule, implemented with
// go/parser so the repo needs no extra tooling) over the packages the
// documentation layer covers. Both run under plain `go test`, so a
// broken link or an undocumented export fails tier-1 too.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the markdown files whose links must resolve.
var docFiles = []string{
	"README.md",
	"docs/ARCHITECTURE.md",
	"docs/BENCHMARKS.md",
	"docs/OBSERVABILITY.md",
	"cmd/campaign/README.md",
	"cmd/campaignd/README.md",
}

// mdLink matches [text](target) markdown links.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsLinksResolve fails on any relative markdown link whose
// target file does not exist — the CI link check over README.md and
// docs/.
func TestDocsLinksResolve(t *testing.T) {
	for _, file := range docFiles {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("required documentation file missing: %v", err)
		}
		dir := filepath.Dir(file)
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
				t.Errorf("%s: broken link %q: %v", file, m[1], err)
			}
		}
	}
}

// mdRef matches a markdown file name, with or without a directory, in
// a Go comment.
var mdRef = regexp.MustCompile(`[\w./-]*[\w-]\.md\b`)

// TestDocsCommentReferencesResolve fails on any Go comment in the
// repository that names a markdown file which does not exist, either
// from the repository root or from the commenting file's directory.
func TestDocsCommentReferencesResolve(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		checked++
		for _, cg := range f.Comments {
			for _, ref := range mdRef.FindAllString(cg.Text(), -1) {
				if fileExists(ref) || fileExists(filepath.Join(filepath.Dir(path), ref)) {
					continue
				}
				t.Errorf("%s: comment names %s, which does not exist", path, ref)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no Go files found")
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// documentedPackages are the directories held to the
// exported-comment standard (the packages docs/ARCHITECTURE.md leans
// on).
var documentedPackages = []string{
	"internal/a51",
	"internal/telecom",
	"internal/sniffer",
	"internal/campaign",
	"internal/population",
	"internal/countermeasure",
	"internal/obs",
	"internal/server",
	"internal/ratelimit",
	"internal/loadgen",
}

// TestDocsExportedComments fails on exported identifiers missing doc
// comments in the documented packages — the `go vet`-style exported
// comment gate (equivalent of revive's `exported` rule, without the
// dependency).
func TestDocsExportedComments(t *testing.T) {
	for _, dir := range documentedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				checkFileExports(t, fset, f)
			}
		}
	}
}

func checkFileExports(t *testing.T, fset *token.FileSet, f *ast.File) {
	t.Helper()
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				t.Errorf("%s: exported %s %s has no doc comment",
					fset.Position(d.Pos()), kindOf(d), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				names, sdoc, scomment := specNames(spec)
				exported := false
				for _, n := range names {
					if n.IsExported() {
						exported = true
						break
					}
				}
				if !exported {
					continue
				}
				// A doc comment on the grouped decl, the spec itself, or
				// a trailing line comment all count (grouped consts often
				// document the group once and each value inline).
				if d.Doc == nil && sdoc == nil && scomment == nil {
					t.Errorf("%s: exported %s %s has no doc comment",
						fset.Position(spec.Pos()), d.Tok, names[0].Name)
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type is
// exported (functions have no receiver and count as exported scope).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

func specNames(spec ast.Spec) ([]*ast.Ident, *ast.CommentGroup, *ast.CommentGroup) {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}, s.Doc, s.Comment
	case *ast.ValueSpec:
		return s.Names, s.Doc, s.Comment
	}
	return nil, nil, nil
}
