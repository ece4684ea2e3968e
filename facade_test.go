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

// TestFacadeReexportsOnlyWhatIsUsed keeps the root package's public
// surface from growing back.  It parses every non-test root file.  The
// Op* and Code* constants are the Go spelling of the package
// documentation's op and error-code tables, so they must be exactly
// engine.Ops() and engine.Codes(); the aliases naming those constants'
// types belong to the same tables.  Every other exported name must be
// used by an example, a command, README.md or doc.go, as
// consensus.<Name> or <Name>.<member>.
func TestFacadeReexportsOnlyWhatIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	engineConsts := engineStringConsts(t, fset)

	var ops, codes []string
	tableTypes := map[string]bool{}   // engine types of the table constants
	declaredIn := map[string]string{} // exported name -> root file declaring it
	aliases := map[string]string{}    // root type alias -> engine type it names
	for _, path := range roots {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					declaredIn[d.Name.Name] = path
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						aliases[s.Name.Name] = engineSel(s.Type)
						declaredIn[s.Name.Name] = path
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
								declaredIn[name.Name] = path
								continue
							}
							c, found := engineConsts[engineSel(s.Values[i])]
							if !found {
								t.Errorf("%s: %s is not an engine Op or Code constant", path, name.Name)
								continue
							}
							*table = append(*table, c.value)
							tableTypes[c.typ] = true
						}
					}
				}
			}
		}
	}
	for name, target := range aliases {
		if tableTypes[target] {
			delete(declaredIn, name)
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
	var others []string
	for name := range declaredIn {
		others = append(others, name)
	}
	sort.Strings(others)
	for _, name := range others {
		used := regexp.MustCompile(`\bconsensus\.` + name + `\b|\b` + name + `\.`)
		if !used.MatchString(corpus) {
			t.Errorf("%s exports %s, which no example, command, README.md or doc.go uses; delete it", declaredIn[name], name)
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
		t.Errorf("root %s = %v, want exactly %v", what, g, w)
	}
}
