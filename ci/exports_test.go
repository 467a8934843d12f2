// Package ci holds repository checks that run as tests, so that `go test
// ./...` runs them on every toolchain the module supports.
package ci

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreachedExports fails for every exported identifier that nothing
// reaches, and for every line of exports-allow.txt that names no such
// identifier. An identifier is a package-level func, type, var or const,
// or a method of an exported type, declared in a non-test file under
// internal/ or in the root package (the mdagent facade).
//
// The packages are type-checked with go/types, so a use is a resolved
// object, not a name: a method is reached only by a selector that resolves
// to it, whatever other method shares its name. An identifier is reached
// when
//
//   - a non-test .go file anywhere in the module or in a nested module
//     (benchmark/) uses it, save that the facade's own files do not
//     reach the facade: it is an API, and its users are examples/, cmd/,
//     benchmark/ and the root tests,
//   - a _test.go file of another package directory uses it, or, for the
//     facade, a root test does, or
//   - it is a method, and its receiver type implements an interface that
//     has the method: an interface declared in the module or in a package
//     the module imports (flag.Value, fmt.Stringer, error,
//     migrate.Catalog, ...), whether or not a call through it is seen.
//
// Uses of an instantiated generic resolve to the generic declaration; a
// method's receiver type is not a use of the type. A name used only by
// its own body, or only by other unreached code, counts as reached: run
// the check again after a deletion, and what only the deleted code used is
// unreached next. A flagged type goes with its methods, and a flagged
// facade name that the facade itself names (a result type) is replaced by
// what it aliases there. testdata/ and dot-directories are not read.
//
// The remedy for a failure is to delete the identifier, or to add a line
// "<id> <reason>" to exports-allow.txt.
func TestNoUnreachedExports(t *testing.T) {
	allow, err := readAllow("exports-allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	unreached, err := scan("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range check(unreached, allow, "exports-allow.txt") {
		t.Error(msg)
	}
}

// TestExportsFixture runs the scan over a tree with one reached and one
// unreached identifier of each kind.
func TestExportsFixture(t *testing.T) {
	const root = "testdata/exports"
	unreached, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range unreached {
		got = append(got, e.pos+" "+e.id)
	}
	want := []string{
		"fixture.go:9 fixture.DeadAlias",
		"fixture.go:15 fixture.SelfOnlyAlias",
		"internal/lib/lib.go:10 lib.DeadFunc",
		"internal/lib/lib.go:16 lib.DeadType",
		"internal/lib/lib.go:22 lib.UsedType.DeadMethod",
		"internal/lib/lib.go:26 lib.DeadType.UsedMethod",
		"internal/lib/lib.go:29 lib.DeadVar",
		"internal/lib/lib.go:34 lib.DeadConst",
		"internal/lib/lib.go:40 lib.OwnTestOnly",
		"internal/lib/lib.go:49 lib.Allowed",
		"internal/lib/lib.go:69 lib.Loud.Whisper",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("scan(%s):\n%s\nwant:\n%s", root, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	allow, err := readAllow(root + "/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	msgs := check(unreached, allow, "allow.txt")
	if len(msgs) != len(want)-1 || strings.Contains(strings.Join(msgs, "\n"), "lib.Allowed") {
		t.Fatalf("check with lib.Allowed allowlisted:\n%s", strings.Join(msgs, "\n"))
	}

	// An entry for a reached name, or for one that no longer exists, is
	// stale and fails too.
	allow["lib.UsedFunc"] = true // reached from cmd/user
	allow["lib.Gone"] = true     // declared nowhere
	msgs = check(unreached, allow, "allow.txt")
	stale := msgs[len(msgs)-2:]
	if len(msgs) != len(want)+1 || !strings.Contains(stale[0], "lib.Gone") || !strings.Contains(stale[1], "lib.UsedFunc") {
		t.Fatalf("check with stale entries:\n%s", strings.Join(msgs, "\n"))
	}
}

// An export is an exported identifier declared in a non-test file under
// internal/ or in the root package.
type export struct {
	// id names the export as the report and the allowlist do: the package
	// path below internal/ (the package name for the root package), the
	// receiver type for a method, then the name.
	id  string
	pos string // file:line relative to the root
}

// A listed package is one entry of `go list -json`.
type listed struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	ForTest    string
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// scan type-checks every package of the module at root and of the modules
// nested under it, and returns, in file and source order, the exports that
// nothing reaches.
func scan(root string) ([]export, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l, err := load(root)
	if err != nil {
		return nil, err
	}
	var exports []declaredAt
	for _, p := range l.plain {
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			l.facade = p.Dir
		} else if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		pkg, err := l.check(p.ImportPath)
		if err != nil {
			return nil, err
		}
		prefix := strings.TrimPrefix(rel, "internal/")
		if rel == "." {
			prefix = pkg.Name()
		}
		exports = append(exports, declared(pkg, prefix)...)
	}
	// Check the rest: every package a use can come from, and every test.
	for _, p := range l.list {
		if inModule(p) && !recompiled(p) && !strings.HasSuffix(p.ImportPath, ".test") {
			if _, err := l.check(p.ImportPath); err != nil {
				return nil, err
			}
		}
	}
	reached := l.reached()
	for pos := range l.implemented() {
		reached[pos] = true
	}
	sort.Slice(exports, func(i, j int) bool {
		a, b := l.fset.Position(exports[i].pos), l.fset.Position(exports[j].pos)
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	var unreached []export
	for _, d := range exports {
		if reached[d.pos] {
			continue
		}
		at := l.fset.Position(d.pos)
		rel, err := filepath.Rel(root, at.Filename)
		if err != nil {
			return nil, err
		}
		unreached = append(unreached, export{id: d.id, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), at.Line)})
	}
	return unreached, nil
}

// A declaredAt is an export before its position is printed.
type declaredAt struct {
	id  string
	pos token.Pos
}

// declared returns the exports of pkg, naming them under prefix.
func declared(pkg *types.Package, prefix string) []declaredAt {
	var out []declaredAt
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		out = append(out, declaredAt{prefix + "." + name, obj.Pos()})
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, declaredAt{prefix + "." + name + "." + m.Name(), m.Pos()})
				}
			}
		}
	}
	return out
}

// A loader type-checks the packages of the modules under one root from
// source, and imports the standard library from export data.
type loader struct {
	fset    *token.FileSet
	list    []*listed          // in `go list -deps` order
	byPath  map[string]*listed // by ImportPath, first listing wins
	plain   []*listed          // non-test module packages, in list order
	std     types.Importer
	checked map[string]*types.Package
	infos   []checkedInfo
	files   map[string]*ast.File // parsed once, shared by a package and its test variant
	// receivers holds the identifiers of method receivers: a type named
	// only as the receiver of its own methods is not reached.
	receivers map[*ast.Ident]bool
	facade    string // directory of the root package
}

// A checkedInfo is the result of one package check.
type checkedInfo struct {
	pkg  *types.Package
	info *types.Info
}

// load lists the module at root and every module nested under it.
func load(root string) (*loader, error) {
	var mods []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.Name() == "go.mod" {
			mods = append(mods, filepath.Dir(p))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		byPath:  map[string]*listed{},
		checked: map[string]*types.Package{},
		files:   map[string]*ast.File{},

		receivers: map[*ast.Ident]bool{},
	}
	for _, dir := range mods {
		if err := l.goList(dir); err != nil {
			return nil, err
		}
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		p := l.byPath[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.Export)
	})
	return l, nil
}

// goList appends the packages of the module in dir, their tests, and
// everything they import.
func (l *loader) goList(dir string) error {
	cmd := exec.Command("go", "list", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,Export,Standard,ForTest,GoFiles,ImportMap,Module,Error", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listed)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return fmt.Errorf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			return fmt.Errorf("go list in %s: %s: %s", dir, p.ImportPath, p.Error.Err)
		}
		if l.byPath[p.ImportPath] != nil {
			continue
		}
		l.byPath[p.ImportPath] = p
		l.list = append(l.list, p)
		if inModule(p) && p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test") {
			l.plain = append(l.plain, p)
		}
	}
}

// inModule reports whether p is checked from source: a package of one of
// the listed modules (or of a module they replace into the tree).
func inModule(p *listed) bool { return !p.Standard && p.Module != nil }

// recompiled reports whether p is a package `go list -test` rebuilt
// against another package's test (q [p.test]), rather than a package, its
// own test variant (p [p.test]) or its external test (p_test [p.test]).
func recompiled(p *listed) bool {
	base, _, _ := strings.Cut(p.ImportPath, " ")
	return p.ForTest != "" && base != p.ForTest && base != p.ForTest+"_test"
}

// check type-checks the module package listed as path, once, after the
// packages it imports.
func (l *loader) check(path string) (*types.Package, error) {
	if pkg := l.checked[path]; pkg != nil {
		return pkg, nil
	}
	p := l.byPath[path]
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		name = filepath.Join(p.Dir, name)
		f := l.files[name]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			l.files[name] = f
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
					ast.Inspect(fn.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							l.receivers[id] = true
						}
						return true
					})
				}
			}
		}
		files = append(files, f)
	}
	var errs []error
	mixed := false // imports a plain package in place of a recompiled one
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if id, ok := p.ImportMap[imp]; ok {
				imp = id
			}
			q := l.byPath[imp]
			if q != nil && recompiled(q) {
				imp, _, _ = strings.Cut(imp, " ")
				q = l.byPath[imp]
				mixed = true
			}
			if q != nil && inModule(q) {
				return l.check(imp)
			}
			return l.std.Import(imp)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) { errs = append(errs, err) },
	}
	if p.Module != nil && p.Module.GoVersion != "" {
		conf.GoVersion = "go" + p.Module.GoVersion
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, _ := conf.Check(path, l.fset, files, info)
	// A test that imports a plain package in place of the one rebuilt
	// against the package under test mixes the two builds' types, and
	// go/types reports the mismatches. Every selector still resolves, so
	// the uses hold; in any other package an error is a loader bug.
	if len(errs) > 0 && !mixed {
		return nil, fmt.Errorf("type-checking %s: %v", path, errors.Join(errs...))
	}
	l.checked[path] = pkg
	l.infos = append(l.infos, checkedInfo{pkg, info})
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reached returns the declarations, by position, that a use reaches. A
// use in a non-test file reaches any declaration, except that the facade
// is not reached by its own files; a use in a test file reaches a
// declaration in another directory, and the facade's from its own root
// tests too.
func (l *loader) reached() map[token.Pos]bool {
	reached := map[token.Pos]bool{}
	for _, c := range l.infos {
		for id, obj := range c.info.Uses {
			obj = origin(obj)
			if obj.Pkg() == nil || reached[obj.Pos()] || l.receivers[id] {
				continue
			}
			decl := l.fset.File(obj.Pos())
			if decl == nil {
				continue
			}
			use := l.fset.File(id.Pos()).Name()
			// In its own directory, a declaration is reached by a non-test
			// file, but the facade only by a test.
			test := strings.HasSuffix(use, "_test.go")
			if dir := filepath.Dir(decl.Name()); dir != filepath.Dir(use) || test == (dir == l.facade) {
				reached[obj.Pos()] = true
			}
		}
	}
	return reached
}

// origin returns the generic declaration of an instantiated func or var.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implemented returns the methods, by position, of the module's named
// types that satisfy an interface: one written in a non-test file of the
// module, one declared at package level in a package the module imports,
// or error.
func (l *loader) implemented() map[token.Pos]bool {
	var ifaces []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	var named []*types.Named
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
		if l.checked[pkg.Path()] == pkg {
			return // a module package: its interfaces come from its syntax
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				add(tn.Type())
			}
		}
	}
	for _, p := range l.plain {
		pkg := l.checked[p.ImportPath]
		walk(pkg)
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}
	for _, c := range l.infos {
		if l.byPath[c.pkg.Path()].ForTest != "" {
			continue // a test variant: its interfaces may hold test-only types
		}
		for expr, tv := range c.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				add(tv.Type)
			}
		}
	}

	impl := map[token.Pos]bool{}
	for _, n := range named {
		switch n.Underlying().(type) {
		case *types.Interface, *types.Pointer:
			continue
		}
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
	next:
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if mset.Lookup(m.Pkg(), m.Name()) == nil {
					continue next
				}
			}
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				impl[origin(mset.Lookup(m.Pkg(), m.Name()).Obj()).Pos()] = true
			}
		}
	}
	return impl
}

// readAllow reads an allowlist, one "<id> <reason>" per line, and returns
// its ids; blank lines and lines starting with # are ignored, and a line
// without a reason is an error.
func readAllow(file string) (map[string]bool, error) {
	fh, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(fh)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, n, id)
		}
		if allow[id] {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", file, n, id)
		}
		allow[id] = true
	}
	return allow, sc.Err()
}

// check returns one message per unreached export that allow does not
// list, in scan order, then one per entry of allow that names no
// unreached export, sorted.
func check(unreached []export, allow map[string]bool, allowFile string) []string {
	var msgs, stale []string
	listed := map[string]bool{}
	for _, e := range unreached {
		if allow[e.id] {
			listed[e.id] = true
			continue
		}
		msgs = append(msgs, fmt.Sprintf("%s %s: exported, reached by nothing; delete it or add it to %s with a reason", e.pos, e.id, allowFile))
	}
	for id := range allow {
		if !listed[id] {
			stale = append(stale, fmt.Sprintf("%s: %s is reached or no longer declared; remove its line", allowFile, id))
		}
	}
	sort.Strings(stale)
	return append(msgs, stale...)
}
