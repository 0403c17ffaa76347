//go:build !race

package repro

// The exported surface of internal/ is what the products call. Every exported
// function and method declared in a non-test file under internal/ must be
// used by a non-test file of module repro or module repro/benchmark — the
// commands, the examples, the benchmark or another internal package. What
// only tests call lives in a _test.go file of its own package; what only its
// own test called is deleted with that test.
//
// The scan type-checks both modules and the standard library from source: a
// few seconds, several times that under the race detector, which checks
// nothing here — hence the build tag (CI runs it in the non-race "Import
// boundaries" step).

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptForTests are exported functions with no non-test caller that another
// package's tests need; each entry says which tests and why.
var keptForTests = map[string]string{
	"repro/internal/app.Synthetic": "the sched, sim, job and metrics tests build jobs of controlled stress without the catalogue",

	"(*repro/internal/chaos.Proxy).Stats": "slurm's chaos acceptance test logs the faults the proxy injected",

	"(*repro/internal/cluster.Cluster).BusyThreads":     "the sim and sched tests check that no thread leaks after a run and recount INV-2 against it",
	"(*repro/internal/cluster.Cluster).CountIdle":       "sim's INV-2 check compares the idle counter with a rescan",
	"(*repro/internal/cluster.Cluster).DownNodes":       "sim's fault tests check every failed node is repaired by the end of a run",
	"(*repro/internal/cluster.Cluster).Holds":           "sim's INV-5 check asserts a queued job holds nothing",
	"(*repro/internal/cluster.Cluster).ShareCandidates": "sched's carried-world test picks co-allocation hosts for its seeded world steps",
	"(*repro/internal/cluster.Node).JobMemoryMB":        "sim's INV-2 check and sched's carried-world test read each resident's memory",
	"(*repro/internal/cluster.Node).JobThreads":         "sched's carried-world test rebuilds a resident's placement to move it",

	"(*repro/internal/des.RNG).Perm": "sched's reference differential and sim's queue tests shuffle with a seeded permutation",

	"(*repro/internal/fault.Injector).Trace": "sim's fault tests compare failure traces across seeds through Engine.FaultTrace",

	"repro/internal/vfs.NewFaulty":                  "the wal, slurm and fabric storage-fault tests wrap the filesystem with it",
	"(*repro/internal/vfs.Faulty).Stats":            "the wal, slurm and fabric storage-fault tests check the faults were injected",
	"(*repro/internal/vfs.Faulty).FailSyncs":        "the wal and slurm storage-fault tests script failed fsyncs",
	"(*repro/internal/vfs.Faulty).TearWrites":       "the wal and fabric storage-fault tests script torn appends",
	"(*repro/internal/vfs.Faulty).CrashAfterWrites": "wal's crash test scripts a crash point",
}

// surfacePackage is one type-checked package of the scan.
type surfacePackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func TestExportedSurface(t *testing.T) {
	sc := &surfaceScan{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*surfacePackage{},
	}
	sc.std = importer.ForCompiler(sc.fset, "source", nil)
	for _, root := range []string{".", "benchmark"} {
		sc.findPackages(t, root)
	}
	paths := make([]string, 0, len(sc.dirs))
	for path := range sc.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := sc.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	ifaces := errorsInterfaces()
	seen := map[*types.Package]bool{}
	for _, path := range paths {
		p := sc.pkgs[path]
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				used[f.Origin()] = true
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
		ifaces = collectInterfaces(p.pkg, seen, ifaces)
	}

	kept := map[string]bool{}
	var unused []string
	for _, path := range paths {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		p := sc.pkgs[path]
		for _, file := range p.files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				f := p.info.Defs[fd.Name].(*types.Func)
				name := f.FullName()
				if used[f] || satisfiesInterface(f, ifaces) {
					continue
				}
				if _, ok := keptForTests[name]; ok {
					kept[name] = true
					continue
				}
				unused = append(unused, sc.fset.Position(fd.Pos()).String()+": "+name)
			}
		}
	}
	for name := range keptForTests {
		if !kept[name] {
			t.Errorf("keptForTests names %s, which is gone or now has a non-test caller: drop the entry", name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but no non-test caller: %s", u)
	}
}

// surfaceScan type-checks the non-test files of every package of both
// modules, as the current build constraints select them. It is its own
// importer for those packages, so a use in one package and the declaration
// in another are the same object; the standard library comes from source.
type surfaceScan struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory
	pkgs map[string]*surfacePackage
}

// findPackages records the import path of every package directory under
// root, a module root.
func (sc *surfaceScan) findPackages(t *testing.T, root string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(data), "\n", 2)[0], "module"))
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			return filepath.SkipDir // another module, scanned from its own root
		}
		rel, _ := filepath.Rel(root, path)
		sc.dirs[module+"/"+filepath.ToSlash(rel)] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.dirs[module] = root
}

func (sc *surfaceScan) Import(path string) (*types.Package, error) {
	dir, ok := sc.dirs[path]
	if !ok {
		return sc.std.Import(path)
	}
	if p, ok := sc.pkgs[path]; ok {
		if p.pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.pkg, nil
	}
	p := &surfacePackage{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	sc.pkgs[path] = p
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			p.pkg = types.NewPackage(path, "")
			return p.pkg, nil
		}
		return nil, err
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(sc.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: sc}
	pkg, err := conf.Check(path, sc.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	return pkg, nil
}

// errorsInterfaces are the interfaces the errors package declares inline
// (errors.Is, errors.As and errors.Unwrap look for these methods).
func errorsInterfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	method := func(name string, params, results []types.Type) *types.Func {
		vars := func(ts []types.Type) *types.Tuple {
			vs := make([]*types.Var, len(ts))
			for i, typ := range ts {
				vs[i] = types.NewParam(token.NoPos, nil, "", typ)
			}
			return types.NewTuple(vs...)
		}
		return types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, vars(params), vars(results), false))
	}
	any := types.Universe.Lookup("any").Type()
	boolType := types.Typ[types.Bool]
	var out []*types.Interface
	for _, m := range []*types.Func{
		method("Unwrap", nil, []types.Type{errType}),
		method("Unwrap", nil, []types.Type{types.NewSlice(errType)}),
		method("Is", []types.Type{errType}, []types.Type{boolType}),
		method("As", []types.Type{any}, []types.Type{boolType}),
	} {
		out = append(out, types.NewInterfaceType([]*types.Func{m}, nil).Complete())
	}
	return append(out, errType.Underlying().(*types.Interface))
}

// collectInterfaces appends the named interfaces declared by pkg and
// everything it imports.
func collectInterfaces(pkg *types.Package, seen map[*types.Package]bool, ifaces []*types.Interface) []*types.Interface {
	if seen[pkg] {
		return ifaces
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, dep := range pkg.Imports() {
		ifaces = collectInterfaces(dep, seen, ifaces)
	}
	return ifaces
}

// satisfiesInterface reports whether f is a method that some interface with a
// method of its name asks for, on a receiver type that implements it.
func satisfiesInterface(f *types.Func, ifaces []*types.Interface) bool {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	for _, it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		named := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == f.Name() {
				named = true
				break
			}
		}
		if named && types.Implements(recv.Type(), it) {
			return true
		}
	}
	return false
}
