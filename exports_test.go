package ssdx

// The keep-deleted check: every exported name declared under internal/ needs
// a reference from a non-test file, or an allowlist entry that says why tests
// alone may use it. Code that no run executes is deleted, not kept alive by
// its own tests.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported internal names that only test files
// reference, each with the reason it stays. Keys are "dir.Name" for
// package-level names and "dir.Type.Method" for methods.
var testOnlyExports = map[string]string{
	"internal/dse.Monitor.ServeHTTP":          "implements http.Handler: the status server's /progress route calls it through the interface",
	"internal/hostif.Config.IdealMBps":        "analytic host-interface bound (the paper's SATA/PCIe ideal columns) that hostif and core tests hold the ModeHostIdeal run to",
	"internal/hostif.Interface.LiveCommands":  "command-pool leak oracle: hostif and core tests check that every command is released after a run",
	"internal/hostif.Interface.WindowWait":    "command-window wait total that a core test cross-checks the queued-stage attribution against",
	"internal/lint/analysis/analysistest.Run": "the analyzer test harness: the package exists for the lint tests alone",
	"internal/nand.Die.BlockPE":               "per-block P/E count that nand and ctrl tests read to check that erases reach the die",
	"internal/nand.Die.PageProgrammed":        "per-page state that nand tests and a core placement test read to check where programs land",
	"internal/nand.SmallGeometry":             "small die geometry that nand and ctrl tests build dies on",
	"internal/telemetry.Breakdown.SumMeanUS":  "stage-sum oracle: core and dse tests check that stage means add up to the end-to-end mean",
	"internal/trace.WorkloadSpec":             "the materialising IOZone generator that workload tests hold the streaming generator byte-identical to",
	"internal/workload.FromRequests":          "compiles a literal request list into a stream, so hostif and core tests can drive the players with exact requests",
}

// declSite is one exported declaration and the span of its own declaration,
// inside which a reference to its name does not count.
type declSite struct {
	key, name, dir, file string
	method               bool
	start, end           token.Pos
}

// useSite is one identifier of a non-test file. pkg is the directory of the
// package a qualified identifier (pkg.Name) names, the file's own directory
// for a bare identifier, and empty for a selector on a value (x.Name), which
// can only name a field or a method.
type useSite struct {
	file string
	pos  token.Pos
	pkg  string
}

func TestNoTestOnlyExports(t *testing.T) {
	decls, uses := scanExports(t, ".")
	declared := make(map[string]bool, len(decls))
	var testOnly []string
	for _, d := range decls {
		declared[d.key] = true
		used := d.usedBy(uses[d.name])
		if _, ok := testOnlyExports[d.key]; ok {
			if used {
				t.Errorf("%s has a non-test reference now; drop its allowlist entry", d.key)
			}
		} else if !used {
			testOnly = append(testOnly, d.key)
		}
	}
	for key, why := range testOnlyExports {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported declaration; drop it", key)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
	sort.Strings(testOnly)
	if len(testOnly) > 0 {
		t.Errorf("%d exported internal names are referenced only from _test.go files.\n"+
			"Delete each one, move it into its package's export_test.go, or add a\n"+
			"testOnlyExports entry that says why tests alone need it:\n\t%s",
			len(testOnly), strings.Join(testOnly, "\n\t"))
	}
}

// usedBy reports whether any of uses, outside d's own declaration, can
// refer to d: a method through any selector or bare name (an interface
// method list), a package-level name bare in its own package or qualified
// by an import of it.
func (d declSite) usedBy(uses []useSite) bool {
	for _, u := range uses {
		if u.file == d.file && u.pos >= d.start && u.pos < d.end {
			continue
		}
		if u.pkg == d.dir || d.method && (u.pkg == "" || u.pkg == filepath.ToSlash(filepath.Dir(u.file))) {
			return true
		}
	}
	return false
}

// scanExports parses every Go file under root, skipping testdata and hidden
// directories. It returns the exported declarations of the non-test files
// under internal/, and the identifiers of every non-test file by name.
func scanExports(t *testing.T, root string) ([]declSite, map[string][]useSite) {
	t.Helper()
	fset := token.NewFileSet()
	var decls []declSite
	uses := make(map[string][]useSite)
	err := filepath.WalkDir(root, func(file string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if file != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		imports := make(map[string]string) // local name → directory
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			p = strings.TrimPrefix(p, "repro/")
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		// Receiver types are part of a method's declaration, not a use of
		// the type.
		skip := make(map[*ast.Ident]bool)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pkg := ""
				if x, ok := n.X.(*ast.Ident); ok {
					pkg = imports[x.Name]
				}
				uses[n.Sel.Name] = append(uses[n.Sel.Name], useSite{file, n.Sel.Pos(), pkg})
				skip[n.Sel] = true
			case *ast.Ident:
				if !skip[n] {
					uses[n.Name] = append(uses[n.Name], useSite{file, n.Pos(), dir})
				}
			}
			return true
		})
		if strings.HasPrefix(dir, "internal/") {
			decls = append(decls, exportedDecls(dir, file, f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, uses
}

// exportedDecls returns the exported functions, methods, types, constants
// and variables that f declares at package level.
func exportedDecls(dir, file string, f *ast.File) []declSite {
	var out []declSite
	add := func(id *ast.Ident, key string, method bool, span ast.Node) {
		if id.IsExported() {
			out = append(out, declSite{key, id.Name, dir, file, method, span.Pos(), span.End()})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				add(d.Name, dir+"."+recvTypeName(d.Recv.List[0].Type)+"."+d.Name.Name, true, d)
			} else {
				add(d.Name, dir+"."+d.Name.Name, false, d)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, dir+"."+s.Name.Name, false, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, dir+"."+id.Name, false, s)
					}
				}
			}
		}
	}
	return out
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
