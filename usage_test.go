package siteselect_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestUsageNamesEveryFlag fails, per command, when a flag its main.go
// defines on its FlagSet (fs) is not named in the package comment, the
// command's usage text.
func TestUsageNamesEveryFlag(t *testing.T) {
	for _, cmd := range []string{"rtbench", "rtdbsim"} {
		t.Run(cmd, func(t *testing.T) {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", cmd, "main.go"), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			doc, n := f.Doc.Text(), 0
			ast.Inspect(f, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if x, isIdent := sel.X.(*ast.Ident); !isIdent || x.Name != "fs" || !ok || lit.Kind != token.STRING {
					return true
				}
				name, _ := strconv.Unquote(lit.Value)
				n++
				if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`).MatchString(doc) {
					t.Errorf("flag -%s is not named in the package comment", name)
				}
				return true
			})
			if n == 0 {
				t.Fatal("found no flag definitions")
			}
		})
	}
}
