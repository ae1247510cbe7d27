package expdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// designMaxLines bounds DESIGN.md: a change that would grow it past the
// bound rewrites a section to describe the code as it is, instead of
// appending to it.
const designMaxLines = 900

// TestDocsNameWhatExists is the drift guard of DESIGN.md and README.md: in
// their backticked spans every internal/… path exists, and every pkg.Name,
// pkg.Type.Member and Type.Member (field or method, promoted ones included)
// is declared in the module. A qualifier that is neither a package nor a
// type of the module — a standard library's, a local variable's — is skipped.
// DESIGN.md is also held to designMaxLines.
func TestDocsNameWhatExists(t *testing.T) {
	pkgs, types := map[string]bool{}, map[string]bool{}
	decl := map[string]bool{}       // "pkg.Name" and "Type.Member" for every field and method
	embeds := map[string][]string{} // type name → the types it embeds or stands for
	err := filepath.WalkDir(".", func(path string, _ fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		pkgs[pkg] = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					decl[pkg+"."+n.Name.Name] = true
				} else {
					decl[typeName(n.Recv.List[0].Type)+"."+n.Name.Name] = true
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					decl[pkg+"."+id.Name] = true
				}
			case *ast.TypeSpec:
				decl[pkg+"."+n.Name.Name], types[n.Name.Name] = true, true
				fields := []*ast.Field{{Type: n.Type}} // a defined or alias type stands for the one it names
				switch ty := n.Type.(type) {
				case *ast.StructType:
					fields = ty.Fields.List
				case *ast.InterfaceType:
					fields = ty.Methods.List
				}
				for _, fl := range fields {
					for _, id := range fl.Names {
						decl[n.Name.Name+"."+id.Name] = true
					}
					if len(fl.Names) == 0 {
						decl[n.Name.Name+"."+typeName(fl.Type)] = true
						embeds[n.Name.Name] = append(embeds[n.Name.Name], typeName(fl.Type))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var has func(typ, m string, depth int) bool
	has = func(typ, m string, depth int) bool {
		found := decl[typ+"."+m]
		for _, e := range embeds[typ] {
			found = found || depth < 3 && has(e, m, depth+1)
		}
		return found
	}
	fences := regexp.MustCompile("(?ms)^```.*?^```")
	spans := regexp.MustCompile("`([^`]+)`")
	chains := regexp.MustCompile(`(?:^|[^\w./])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`)
	paths := regexp.MustCompile(`(?:^|[^\w/])(internal/[\w./-]*[\w/])`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(text), "\n"); doc == "DESIGN.md" && n > designMaxLines {
			t.Errorf("DESIGN.md has %d lines, more than %d: rewrite a section instead of adding one", n, designMaxLines)
		}
		for _, s := range spans.FindAllStringSubmatch(fences.ReplaceAllString(string(text), ""), -1) {
			for _, p := range paths.FindAllStringSubmatch(s[1], -1) {
				if _, err := os.Stat(p[1]); err != nil {
					t.Errorf("%s: `%s` names a path that does not exist", doc, s[1])
				}
			}
			for _, c := range chains.FindAllStringSubmatch(s[1], -1) {
				ids, ok := strings.Split(c[1], "."), true
				switch {
				case strings.Contains(s[1], "/"): // a path, checked above
				case pkgs[ids[0]]:
					ok = decl[ids[0]+"."+ids[1]] && (len(ids) < 3 || has(ids[1], ids[2], 0))
				case types[ids[0]]:
					ok = has(ids[0], ids[1], 0)
				}
				if !ok {
					t.Errorf("%s: `%s` names %s, which the module does not declare", doc, s[1], c[1])
				}
			}
		}
	}
}

// TestProductionImportsNoTestSupport: a module package whose last path
// element ends in "test" (promtest, reltest) is test support, so no file
// but a test or another test-support package's imports one.
func TestProductionImportsNoTestSupport(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, _ fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.HasSuffix(filepath.Dir(path), "test") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "expdb/") && strings.HasSuffix(p, "test") {
				t.Errorf("%s imports the test-support package %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// typeName is the name of the type x spells: T, *T, pkg.T and T[P] are T.
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}
