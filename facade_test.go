package consensus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"consensus/internal/engine"
)

// TestFacadeReexportsOnlyWhatIsUsed keeps the engine facade (engine.go)
// from growing back.  The Op* and Code* constants are the Go spelling of
// the package documentation's op and error-code tables, so they must be
// exactly engine.Ops() and engine.Codes(); the aliases naming those
// constants' types belong to the same tables.  Every other exported name
// must be used by an example, a command, README.md or doc.go, as
// consensus.<Name> or <Name>.<member>.
func TestFacadeReexportsOnlyWhatIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "engine.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	engineConsts := engineStringConsts(t, fset)

	var ops, codes []string
	tableTypes := map[string]bool{} // engine types of the table constants
	var others []string
	aliases := map[string]string{} // root type alias -> engine type it names
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				others = append(others, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					aliases[s.Name.Name] = engineSel(s.Type)
				case *ast.ValueSpec:
					for i, name := range s.Names {
						if !name.IsExported() {
							continue
						}
						var table *[]string
						switch {
						case strings.HasPrefix(name.Name, "Op"):
							table = &ops
						case strings.HasPrefix(name.Name, "Code"):
							table = &codes
						default:
							others = append(others, name.Name)
							continue
						}
						c, found := engineConsts[engineSel(s.Values[i])]
						if !found {
							t.Errorf("engine.go: %s is not an engine Op or Code constant", name.Name)
							continue
						}
						*table = append(*table, c.value)
						tableTypes[c.typ] = true
					}
				}
			}
		}
	}
	for name, target := range aliases {
		if !tableTypes[target] {
			others = append(others, name)
		}
	}

	var wantOps, wantCodes []string
	for _, op := range engine.Ops() {
		wantOps = append(wantOps, string(op))
	}
	for _, c := range engine.Codes() {
		wantCodes = append(wantCodes, string(c))
	}
	sameSet(t, "Op* constants", ops, wantOps)
	sameSet(t, "Code* constants", codes, wantCodes)

	corpus := usageCorpus(t)
	sort.Strings(others)
	for _, name := range others {
		used := regexp.MustCompile(`\bconsensus\.` + name + `\b|\b` + name + `\.`)
		if !used.MatchString(corpus) {
			t.Errorf("engine.go re-exports %s, which no example, command, README.md or doc.go uses; delete it", name)
		}
	}
}

// engineConst is one string constant of internal/engine: its declared
// type and literal value.
type engineConst struct{ typ, value string }

// engineStringConsts parses internal/engine for its typed string
// constants (the Op and Code enumerations), keyed by name.
func engineStringConsts(t *testing.T, fset *token.FileSet) map[string]engineConst {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", "engine", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]engineConst{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.CONST {
				continue
			}
			for _, spec := range d.Specs {
				s := spec.(*ast.ValueSpec)
				typ, ok := s.Type.(*ast.Ident)
				if !ok {
					continue
				}
				for i, name := range s.Names {
					lit, ok := s.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out[name.Name] = engineConst{typ: typ.Name, value: v}
				}
			}
		}
	}
	return out
}

// engineSel returns Name for an engine.<Name> expression, else "".
func engineSel(e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "engine" {
		return ""
	}
	return sel.Sel.Name
}

// usageCorpus concatenates the documented surfaces a facade name may be
// used from: the non-test Go sources of examples/ and cmd/, README.md and
// doc.go.
func usageCorpus(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			data, err := os.ReadFile(path)
			b.Write(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"README.md", "doc.go"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
	}
	return b.String()
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("engine.go %s = %v, want exactly %v", what, g, w)
	}
}
