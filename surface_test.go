package nvariant

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
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers, option fields and
// packages that may lack a non-test caller (or, for a field, a non-test
// writer). Keys are "pkgpath.Name", "pkgpath.Type.Method",
// "pkgpath.Type.Field" or a bare package path; every entry needs a
// one-line reason, and an entry that gains a caller or disappears
// fails the test until it is removed.
var surfaceAllowlist = map[string]string{
	"nvariant/internal/testutil":                       "test-support package: only _test.go files are meant to import it",
	"nvariant/internal/vmem.Space.Resident":            "introspection for nvkernel's TestReadStagingSizedToData: pins that a lane serving small documents backs only the bytes it touched",
	"nvariant/internal/httpd.Options.LogUIDs":          "reproduces the paper's §4 pitfall, a UID in shared log output (harness TestLogUIDsPitfall)",
	"nvariant/internal/httpd.Options.NoDetectionCalls": "the §5 ablation: BenchmarkAblationSyscallBoundary measures configuration 4 without the per-request uid_value call",
	"nvariant/internal/httpd.Options.ServiceTime":      "blocking service work for the gated BenchmarkTable3Config4Workers prefork sweep",
}

// TestExportedSurfaceHasCallers enforces the surface rule: every
// exported identifier of the module is used by some non-test file
// other than its own declaration. The nvbench module's non-test files
// count as callers but are not themselves checked.
func TestExportedSurfaceHasCallers(t *testing.T) {
	pkgs, err := readModule(".", "nvariant", map[string]bool{"nvbench": true})
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkSurface(pkgs, surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestSurfaceCheckerRules runs the checker over small in-memory modules,
// pinning each rule independently of the repository's own surface.
func TestSurfaceCheckerRules(t *testing.T) {
	const lib = `package a

type T struct{}

func New() T { return T{} }

func (T) Used() {}

func (T) Orphan() {}

func Orphan() {}
`
	const libTest = `package a

func useFromTest() { Orphan(); T{}.Orphan() }
`
	const ifaceLib = `package a

type Runner interface{ Run() }

type T struct{}

func (T) Run() {}

func (T) Error() string { return "t" }

func Start(r Runner) { r.Run() }

func Fail() error { return T{} }
`
	const optsLib = `package a

type Options struct {
	Size int
	Knob int
	hidden int
}

type Config struct{ Name string }

type unexportedConfig struct{ Name string }

func Run(o Options) int { return o.Size + o.Knob + o.hidden + len(unexportedConfig{}.Name) }

func Use(c Config) string { return c.Name }
`
	mainPkg := func(body string, imports ...string) map[string]string {
		src := "package main\n\n"
		for _, imp := range imports {
			src += "import \"" + imp + "\"\n"
		}
		return map[string]string{"main.go": src + "\nfunc main() { " + body + " }\n"}
	}
	stale := "is stale: it has a non-test caller or no longer exists"
	for _, tc := range []struct {
		name  string
		pkgs  map[string]*surfacePkg
		allow map[string]string
		want  []string
	}{{
		name: "orphan function and method, even when tests call them",
		pkgs: map[string]*surfacePkg{
			"m/a":   {files: map[string]string{"a.go": lib}, tests: map[string]string{"a_test.go": libTest}},
			"m/cmd": {files: mainPkg("a.New().Used()", "m/a")},
		},
		want: []string{
			"exported func m/a.Orphan has no non-test caller",
			"exported method m/a.T.Orphan has no non-test caller",
		},
	}, {
		name: "methods that only satisfy an interface",
		pkgs: map[string]*surfacePkg{
			"m/a":   {files: map[string]string{"a.go": ifaceLib}},
			"m/cmd": {files: mainPkg("a.Start(a.T{}); _ = a.Fail()", "m/a")},
		},
	}, {
		name: "package imported only by tests",
		pkgs: map[string]*surfacePkg{
			"m/b": {files: map[string]string{"b.go": "package b\n\nfunc B() {}\n"}},
			"m/cmd": {
				files: mainPkg(""),
				tests: map[string]string{"main_test.go": "package main\n\nimport _ \"m/b\"\n"},
			},
		},
		want: []string{
			"exported func m/b.B has no non-test caller",
			"package m/b is imported only by _test.go files",
		},
	}, {
		name: "allowlisted package excuses its members",
		pkgs: map[string]*surfacePkg{
			"m/b": {files: map[string]string{"b.go": "package b\n\nfunc B() {}\n"}},
			"m/cmd": {
				files: mainPkg(""),
				tests: map[string]string{"main_test.go": "package main\n\nimport _ \"m/b\"\n"},
			},
		},
		allow: map[string]string{"m/b": "test support"},
	}, {
		name: "allowlist entry with no reason",
		pkgs: map[string]*surfacePkg{
			"m/a":   {files: map[string]string{"a.go": lib}},
			"m/cmd": {files: mainPkg("a.New().Used()", "m/a")},
		},
		allow: map[string]string{"m/a.Orphan": " ", "m/a.T.Orphan": "kept for a reason"},
		want:  []string{"allowlist entry m/a.Orphan has no reason"},
	}, {
		name: "stale allowlist entries",
		pkgs: map[string]*surfacePkg{
			"m/a":   {files: map[string]string{"a.go": lib}},
			"m/cmd": {files: mainPkg("a.New().Used(); a.Orphan(); a.New().Orphan()", "m/a")},
		},
		allow: map[string]string{"m/a.T.Used": "was orphaned once", "m/a.Gone": "deleted since"},
		want: []string{
			"allowlist entry m/a.Gone " + stale,
			"allowlist entry m/a.T.Used " + stale,
		},
	}, {
		name: "option field written only from a test",
		pkgs: map[string]*surfacePkg{
			"m/a": {
				files: map[string]string{"a.go": optsLib},
				tests: map[string]string{"a_test.go": "package a\n\nvar _ = Run(Options{Knob: 1})\n"},
			},
			"m/cmd": {files: mainPkg("a.Run(a.Options{Size: 2}); var c a.Config; c.Name = \"x\"; a.Use(c)", "m/a")},
		},
		want: []string{"exported field m/a.Options.Knob has no non-test writer"},
	}, {
		name: "option field written by non-test code",
		pkgs: map[string]*surfacePkg{
			"m/a":   {files: map[string]string{"a.go": optsLib}},
			"m/cmd": {files: mainPkg("o := a.Options{Size: 2}; (o.Knob) = 3; a.Run(o); a.Use(a.Config{Name: \"x\"})", "m/a")},
		},
	}, {
		name: "allowlisted option field",
		pkgs: map[string]*surfacePkg{
			"m/a":   {files: map[string]string{"a.go": optsLib}},
			"m/cmd": {files: mainPkg("a.Run(a.Options{Size: 2}); a.Use(a.Config{Name: \"x\"})", "m/a")},
		},
		allow: map[string]string{"m/a.Options.Knob": "ablation bench"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := checkSurface(tc.pkgs, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

// surfacePkg is one package's sources: non-test files are type-checked,
// test files are read only for their imports.
type surfacePkg struct {
	files map[string]string // non-test file name → source
	tests map[string]string // _test.go file name → source
	// callerOnly packages count as callers but are never checked.
	callerOnly bool
}

// readModule reads every package under root (module path modPath),
// honouring build constraints. Directories named in callerOnly (paths
// relative to root) and their subdirectories are read as callers only.
func readModule(root, modPath string, callerOnly map[string]bool) (map[string]*surfacePkg, error) {
	pkgs := map[string]*surfacePkg{}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		p := &surfacePkg{files: map[string]string{}, tests: map[string]string{}}
		importPath := modPath
		if rel != "." {
			importPath = path.Join(modPath, filepath.ToSlash(rel))
			p.callerOnly = callerOnly[strings.SplitN(filepath.ToSlash(rel), "/", 2)[0]]
		}
		read := func(into map[string]string, names []string) error {
			for _, n := range names {
				b, err := os.ReadFile(filepath.Join(dir, n))
				if err != nil {
					return err
				}
				into[n] = string(b)
			}
			return nil
		}
		if err := read(p.files, bp.GoFiles); err != nil {
			return err
		}
		if err := read(p.tests, append(bp.TestGoFiles, bp.XTestGoFiles...)); err != nil {
			return err
		}
		if len(p.files) > 0 || len(p.tests) > 0 {
			pkgs[importPath] = p
		}
		return nil
	})
	return pkgs, err
}

// surfaceLoader type-checks the module's non-test files in dependency
// order through one importer, so every package shares the objects of
// the packages it imports.
type surfaceLoader struct {
	fset    *token.FileSet
	srcs    map[string]*surfacePkg
	std     types.Importer
	pkgs    map[string]*types.Package
	infos   map[string]*types.Info
	files   map[string][]*ast.File
	loading map[string]bool
}

func (l *surfaceLoader) Import(p string) (*types.Package, error) {
	src, ok := l.srcs[p]
	if !ok || len(src.files) == 0 {
		return l.std.Import(p)
	}
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	if l.loading[p] {
		return nil, fmt.Errorf("import cycle through %s", p)
	}
	l.loading[p] = true
	var files []*ast.File
	for _, name := range sortedKeys(src.files) {
		f, err := parser.ParseFile(l.fset, path.Join(p, name), src.files[name], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p], l.infos[p], l.files[p] = pkg, info, files
	return pkg, nil
}

// checkSurface reports every exported identifier or package without a
// non-test caller that the allowlist does not excuse, plus every
// allowlist entry with no reason or with nothing left to excuse.
func checkSurface(srcs map[string]*surfacePkg, allow map[string]string) ([]string, error) {
	l := &surfaceLoader{
		fset:    token.NewFileSet(),
		srcs:    srcs,
		std:     importer.Default(),
		pkgs:    map[string]*types.Package{},
		infos:   map[string]*types.Info{},
		files:   map[string][]*ast.File{},
		loading: map[string]bool{},
	}
	// paths lists the packages with non-test files, all type-checked.
	var paths []string
	for _, p := range sortedKeys(srcs) {
		if len(srcs[p].files) > 0 {
			if _, err := l.Import(p); err != nil {
				return nil, fmt.Errorf("type-check %s: %w", p, err)
			}
			paths = append(paths, p)
		}
	}

	// Candidates: exported package-level objects and exported methods
	// of the checked packages, keyed by their report name.
	names := map[types.Object]string{}
	for _, p := range paths {
		if srcs[p].callerOnly {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				names[obj] = p + "." + n
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					names[m] = p + "." + n + "." + m.Name()
				}
			}
		}
	}

	// Declaration extents: a reference inside an object's own
	// declaration, or in a method's receiver list, is not a caller.
	extent := map[types.Object][2]token.Pos{}
	skip := map[*ast.Ident]bool{}
	for _, p := range paths {
		info := l.infos[p]
		for _, f := range l.files[p] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					extent[info.Defs[d.Name]] = [2]token.Pos{d.Pos(), d.End()}
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								skip[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							extent[info.Defs[s.Name]] = [2]token.Pos{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								extent[info.Defs[id]] = [2]token.Pos{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, p := range paths {
		for id, obj := range l.infos[p].Uses {
			if _, ok := names[obj]; !ok || skip[id] {
				continue
			}
			if e := extent[obj]; id.Pos() >= e[0] && id.Pos() < e[1] {
				continue
			}
			used[obj] = true
		}
	}

	// Interface exemption: a method its receiver type needs to satisfy
	// an interface (error, fmt.Stringer, sys.Program, ...) is called
	// through that interface.
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() != nil {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				addIface(it)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range paths {
		visit(l.pkgs[p])
		for _, tv := range l.infos[p].Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.IsMethodSet() {
				addIface(it)
			}
		}
	}
	satisfies := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	flagged := map[string]string{}
	for obj, name := range names {
		if _, excused := allow[obj.Pkg().Path()]; used[obj] || excused {
			continue
		}
		kind := "identifier"
		switch o := obj.(type) {
		case *types.Func:
			kind = "func"
			if o.Type().(*types.Signature).Recv() != nil {
				if satisfies(o) {
					continue
				}
				kind = "method"
			}
		case *types.TypeName:
			kind = "type"
		case *types.Var:
			kind = "var"
		case *types.Const:
			kind = "const"
		}
		flagged[name] = "exported " + kind + " " + name + " has no non-test caller"
	}

	// Options rule: an exported field of an exported struct type named
	// *Options or *Config needs a non-test writer — a composite-literal
	// key or an assignment target resolving to that field. A knob that
	// only tests turn belongs in the test, not in the API.
	optionFields := map[*types.Var]string{}
	for _, p := range paths {
		if srcs[p].callerOnly {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !(strings.HasSuffix(n, "Options") || strings.HasSuffix(n, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					optionFields[f] = p + "." + n + "." + f.Name()
				}
			}
		}
	}
	written := map[*types.Var]bool{}
	for _, p := range paths {
		info := l.infos[p]
		write := func(e ast.Expr) {
			var id *ast.Ident
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				id = x
			case *ast.SelectorExpr:
				id = x.Sel
			}
			if v, ok := info.Uses[id].(*types.Var); ok {
				written[v.Origin()] = true
			}
		}
		for _, f := range l.files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							write(kv.Key)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				}
				return true
			})
		}
	}
	for f, name := range optionFields {
		if _, excused := allow[f.Pkg().Path()]; !written[f] && !excused {
			flagged[name] = "exported field " + name + " has no non-test writer"
		}
	}

	// Package rule: a non-main package that only _test.go files import.
	importedBy := map[string]bool{}
	for _, p := range paths {
		for _, imp := range l.pkgs[p].Imports() {
			importedBy[imp.Path()] = true
		}
	}
	testImported := map[string]bool{}
	for p, src := range srcs {
		for name := range src.tests {
			f, err := parser.ParseFile(l.fset, path.Join(p, name), src.tests[name], parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range f.Imports {
				testImported[strings.Trim(imp.Path.Value, `"`)] = true
			}
		}
	}
	for _, p := range paths {
		if srcs[p].callerOnly || l.pkgs[p].Name() == "main" {
			continue
		}
		if !importedBy[p] && testImported[p] {
			flagged[p] = "package " + p + " is imported only by _test.go files"
		}
	}

	var problems []string
	for name, msg := range flagged {
		if _, ok := allow[name]; !ok {
			problems = append(problems, msg)
		}
	}
	for name, reason := range allow {
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, "allowlist entry "+name+" has no reason")
		}
		if _, ok := flagged[name]; !ok {
			problems = append(problems, "allowlist entry "+name+" is stale: it has a non-test caller or no longer exists")
		}
	}
	sort.Strings(problems)
	return problems, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
