package ssdx

// The keep-deleted check: every exported name declared under internal/ needs
// a reference from a non-test file, or an allowlist entry that says why tests
// alone may use it. Code that no run executes is deleted, not kept alive by
// its own tests.

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// testOnlyExports lists the exported internal names that only test files
// reference, each with the reason it stays. Keys are "dir.Name" for
// package-level names and "dir.Type.Method" for methods.
var testOnlyExports = map[string]string{
	"internal/hostif.Config.IdealMBps":        "analytic host-interface bound (the paper's SATA/PCIe ideal columns) that hostif and core tests hold the ModeHostIdeal run to",
	"internal/hostif.Interface.LiveCommands":  "command-pool leak oracle: hostif and core tests check that every command is released after a run",
	"internal/hostif.Interface.WindowWait":    "command-window wait total that a core test cross-checks the queued-stage attribution against",
	"internal/lint/analysis/analysistest.Run": "the analyzer test harness: the package exists for the lint tests alone",
	"internal/nand.Die.AvgWear":               "mean-wear oracle: nand tests, the sparse die's fuzz against its dense reference and a ctrl test read it to check SetWear and erase accounting",
	"internal/nand.Die.BlockPE":               "per-block P/E count that nand and ctrl tests read to check that erases reach the die",
	"internal/nand.Die.PageProgrammed":        "per-page state that nand tests and a core placement test read to check where programs land",
	"internal/nand.SmallGeometry":             "small die geometry that nand and ctrl tests build dies on",
	"internal/telemetry.Breakdown.SumMeanUS":  "stage-sum oracle: core and dse tests check that stage means add up to the end-to-end mean",
	"internal/telemetry.Span.Stage":           "stage-attribution oracle: ctrl and telemetry tests read one stage's accumulated time to check which stage each component charges",
	"internal/telemetry.Span.Total":           "span-sum oracle: ctrl and telemetry tests check that a span's stage times add up to the command's completion time",
	"internal/trace.WorkloadSpec":             "the materialising IOZone generator that workload tests hold the streaming generator byte-identical to",
	"internal/trace.WorkloadSpec.Generate":    "materialises the reference IOZone requests that workload tests compare the streaming generator against",
	"internal/workload.FromRequests":          "compiles a literal request list into a stream, so hostif and core tests can drive the players with exact requests",
}

func TestNoTestOnlyExports(t *testing.T) {
	// cmd/ssdxbench is a module of its own that imports the internal
	// packages, so its files count as non-test references too.
	declared, testOnly := scanExports(t, "repro", ".", "cmd/ssdxbench")
	for key := range testOnlyExports {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported declaration; drop it", key)
		}
	}
	var flagged []string
	onList := make(map[string]bool)
	for _, key := range testOnly {
		if _, ok := testOnlyExports[key]; ok {
			onList[key] = true
		} else {
			flagged = append(flagged, key)
		}
	}
	for key, why := range testOnlyExports {
		if declared[key] && !onList[key] {
			t.Errorf("%s has a non-test reference now; drop its allowlist entry", key)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
	if len(flagged) > 0 {
		t.Errorf("%d exported internal names are referenced only from _test.go files.\n"+
			"Delete each one, move it into its package's export_test.go, or add a\n"+
			"testOnlyExports entry that says why tests alone need it:\n\t%s",
			len(flagged), strings.Join(flagged, "\n\t"))
	}
}

// TestScanExportsResolvesTypes runs the scan over a fixture module whose
// test-only names share their names with live ones, so only type
// resolution tells them apart.
func TestScanExportsResolvesTypes(t *testing.T) {
	_, testOnly := scanExports(t, "fixture", "testdata/exports")
	want := []string{
		"internal/a.Codec.Decode",
		"internal/a.Fixed.Decode",
		"internal/a.Free",
		"internal/a.Spec.Generate",
		"internal/a.Spec.Len",
	}
	if !reflect.DeepEqual(testOnly, want) {
		t.Errorf("test-only names:\n\t%s\nwant:\n\t%s",
			strings.Join(testOnly, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// scanExports type-checks the non-test packages of the module rooted at the
// first of dirs (whose path is module) and of every further module in dirs.
// It returns the keys of the exported declarations under the first
// module's internal/ tree, and, sorted, those of them that no non-test file
// uses.
//
// A package-level name is used when some identifier resolves to it outside
// its own declaration; a receiver does not count. A method is used when a
// selector resolves to it, or when a call through an interface could reach
// it: its receiver type has every method of an interface (by name and
// signature) whose method of that name a non-test file calls, or that the
// standard library declares, since its calls (fmt's String, sort's Less,
// http's ServeHTTP) are out of the scan's sight. An interface method is
// used when it is called.
//
// Each package is checked from source against its imports' export data, so
// one declaration has one object in its own package and another in each
// importer; uses from other packages match by key.
func scanExports(t *testing.T, module string, dirs ...string) (map[string]bool, []string) {
	t.Helper()
	s := exportScan{
		module: module,
		decls:  make(map[string]*exportDecl),
		byObj:  make(map[types.Object]*exportDecl),
		ifaces: make(map[string]map[*types.Interface]bool),
	}
	var loads [][]*analysis.Package
	for _, dir := range dirs {
		pkgs, err := analysis.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, pkgs)
	}
	for _, pkg := range loads[0] {
		if strings.HasPrefix(pkg.Path, module+"/internal/") {
			s.declare(pkg)
		}
	}
	for _, pkgs := range loads {
		for _, pkg := range pkgs {
			s.use(pkg)
		}
	}
	s.stdInterfaces(loads[0])

	declared := make(map[string]bool, len(s.decls))
	var testOnly []string
	for key, d := range s.decls {
		declared[key] = true
		if !d.used && !s.dispatched(d) {
			testOnly = append(testOnly, key)
		}
	}
	sort.Strings(testOnly)
	return declared, testOnly
}

// exportDecl is one exported declaration: its object, the span of its own
// declaration (inside which a use does not count) and whether a non-test
// file uses it.
type exportDecl struct {
	obj        types.Object
	start, end token.Pos
	used       bool
}

type exportScan struct {
	module string
	decls  map[string]*exportDecl
	byObj  map[types.Object]*exportDecl
	// ifaces maps a method name to the interfaces through which a call to
	// it can dispatch: those whose method of that name a non-test file
	// calls, and the standard library's.
	ifaces map[string]map[*types.Interface]bool
}

// declare records the exported package-level names, methods and interface
// methods that pkg declares.
func (s *exportScan) declare(pkg *analysis.Package) {
	dir := strings.TrimPrefix(pkg.Path, s.module+"/")
	add := func(id *ast.Ident, key string, span ast.Node) {
		if obj := pkg.Info.Defs[id]; obj != nil && id.IsExported() {
			d := &exportDecl{obj: obj, start: span.Pos(), end: span.End()}
			s.decls[dir+"."+key] = d
			s.byObj[obj] = d
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(decl.Name, decl.Name.Name, decl)
				} else {
					add(decl.Name, recvTypeName(decl.Recv.List[0].Type)+"."+decl.Name.Name, decl)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name, spec)
						if it, ok := spec.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									add(id, spec.Name.Name+"."+id.Name, m)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, id.Name, spec)
						}
					}
				}
			}
		}
	}
}

// use marks every declaration that pkg's identifiers resolve to, and
// records the interface methods pkg calls.
func (s *exportScan) use(pkg *analysis.Package) {
	recv := make(map[*ast.Ident]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range pkg.Info.Uses {
		if recv[id] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			if it := abstractRecv(fn); it != nil {
				s.addIface(it, fn.Name())
			}
			obj = fn.Origin()
		}
		if d := s.byObj[obj]; d != nil {
			if id.Pos() < d.start || id.Pos() >= d.end {
				d.used = true
			}
		} else if d := s.decls[s.key(obj)]; d != nil {
			d.used = true
		}
	}
}

func (s *exportScan) addIface(it *types.Interface, name string) {
	if s.ifaces[name] == nil {
		s.ifaces[name] = make(map[*types.Interface]bool)
	}
	s.ifaces[name][it] = true
}

// abstractRecv returns the interface that declares fn, or nil when fn is a
// concrete function or method.
func abstractRecv(fn *types.Func) *types.Interface {
	if r := fn.Signature().Recv(); r != nil {
		it, _ := r.Type().Underlying().(*types.Interface)
		return it
	}
	return nil
}

// key renders an object in the declaration key format, or "" when it
// cannot name a scanned declaration.
func (s *exportScan) key(obj types.Object) string {
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), s.module+"/") {
		return ""
	}
	dir := strings.TrimPrefix(obj.Pkg().Path(), s.module+"/")
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		if named := recvNamed(fn); named != nil {
			return dir + "." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return dir + "." + obj.Name()
}

// recvNamed returns the named type, pointers stripped and type arguments
// dropped, that method fn belongs to, or nil for an unnamed interface.
func recvNamed(fn *types.Func) *types.Named {
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin()
	}
	return nil
}

// stdInterfaces adds every method of the interfaces that the standard
// library packages reachable from pkgs declare, error's included.
func (s *exportScan) stdInterfaces(pkgs []*analysis.Package) {
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			s.addIface(it, it.Method(i).Name())
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !strings.HasPrefix(p.Path(), s.module) {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
						add(it)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
	}
}

// dispatched reports whether a call through an interface can reach the
// concrete method d.
func (s *exportScan) dispatched(d *exportDecl) bool {
	fn, ok := d.obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil || abstractRecv(fn) != nil {
		return false
	}
	named := recvNamed(fn)
	if named.TypeParams().Len() > 0 {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	for it := range s.ifaces[fn.Name()] {
		if hasMethods(ms, it) {
			return true
		}
	}
	return false
}

// hasMethods reports whether ms has every method of it, by name and
// signature. Signatures compare as strings of their parameter and result
// types, since the interface and the method set may come from different
// type-checks.
func hasMethods(ms *types.MethodSet, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil || sigString(sel.Obj().(*types.Func)) != sigString(m) {
			return false
		}
	}
	return true
}

// sigString renders fn's parameter and result types, without names.
func sigString(fn *types.Func) string {
	sig := fn.Signature()
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), (*types.Package).Path))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
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
