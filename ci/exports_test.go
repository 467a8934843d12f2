// Package ci holds repository checks that run as tests, so that `go test
// ./...` runs them on every toolchain the module supports.
package ci

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnreachedExports fails for every exported identifier in internal/
// that nothing reaches, and for every line of exports-allow.txt that names
// no such identifier. An identifier is a package-level func, type, var or
// const, or a method, declared in a non-test file under internal/. It is
// reached when it is mentioned by
//
//   - a non-test .go file anywhere under the root, nested modules such as
//     benchmark/ included, or
//   - a _test.go file of another package (another directory).
//
// A package-level name is mentioned only as <import>.Name through its
// package's import, or as a bare name inside its own package; receiver
// types and declared names are not mentions. A method is mentioned by its
// name alone, in any selector x.Name. The check is syntactic: a dead
// method that shares its name with a used one, or a name mentioned only by
// its own body or by other dead code, passes. It never flags an identifier
// that some file mentions, so deleting what it names cannot break the
// build (run it again after a deletion: what only the deleted code used is
// unreached next). testdata/ and dot-directories (benchmark/.bin) are not
// read.
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
		got = append(got, e.pos+" "+e.id())
	}
	want := []string{
		"internal/lib/lib.go:10 lib.DeadFunc",
		"internal/lib/lib.go:16 lib.DeadType",
		"internal/lib/lib.go:22 lib.UsedType.DeadMethod",
		"internal/lib/lib.go:28 lib.DeadVar",
		"internal/lib/lib.go:33 lib.DeadConst",
		"internal/lib/lib.go:39 lib.OwnTestOnly",
		"internal/lib/lib.go:48 lib.Allowed",
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
// internal/.
type export struct {
	dir  string // package directory relative to the root, slash-separated
	recv string // receiver type of a method; empty for a package-level name
	name string
	pos  string // file:line relative to the root
}

// id names e as the report and the allowlist do: the package path below
// internal/, the receiver type for a method, then the name.
func (e export) id() string {
	pkg := strings.TrimPrefix(e.dir, "internal/")
	if e.recv != "" {
		return pkg + "." + e.recv + "." + e.name
	}
	return pkg + "." + e.name
}

// A ref is what a mention names: a package-level name in the package at
// dir, or, with dir empty, any method called name.
type ref struct{ dir, name string }

// scan parses every .go file under root and returns, in file and source
// order, the exports that no file reaches. root holds the go.mod whose module
// path the imports are resolved against.
func scan(root string) ([]export, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var exports []export
	// mentions[r] holds "" when a non-test file mentions r, and the
	// directory of each test file that does.
	mentions := map[ref]map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := path.Dir(rel)
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		where := ""
		if strings.HasSuffix(name, "_test.go") {
			where = dir
		} else if strings.HasPrefix(dir, "internal/") {
			exports = append(exports, declared(fset, f, rel, dir)...)
		}
		mentioned(f, mod, dir, func(r ref) {
			if mentions[r] == nil {
				mentions[r] = map[string]bool{}
			}
			mentions[r][where] = true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var unreached []export
	for _, e := range exports {
		r := ref{e.dir, e.name}
		if e.recv != "" {
			r.dir = ""
		}
		reached := false
		for where := range mentions[r] {
			reached = reached || where != e.dir
		}
		if !reached {
			unreached = append(unreached, e)
		}
	}
	return unreached, nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// declared returns the exports of one non-test file in the package at dir:
// package-level funcs, types, vars and consts, and the methods of exported
// types.
func declared(fset *token.FileSet, f *ast.File, file, dir string) []export {
	var out []export
	add := func(recv string, id *ast.Ident) {
		if id.IsExported() {
			pos := fmt.Sprintf("%s:%d", file, fset.Position(id.Pos()).Line)
			out = append(out, export{dir: dir, recv: recv, name: id.Name, pos: pos})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add("", d.Name)
			} else if recv := recvType(d.Recv.List[0].Type); ast.IsExported(recv) {
				add(recv, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add("", s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add("", id)
					}
				}
			}
		}
	}
	return out
}

// recvType returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvType(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// mentioned calls use for every mention in f, a file of the package at
// dir in module mod. An import's package name is taken to be the last
// element of its path.
func mentioned(f *ast.File, mod, dir string, use func(ref)) {
	imports := map[string]string{} // local name -> package dir
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		pkgDir, ok := strings.CutPrefix(p, mod+"/")
		if !ok {
			continue
		}
		local := path.Base(p)
		if im.Name != nil {
			local = im.Name.Name
		}
		imports[local] = pkgDir
	}
	// Names being declared, receiver types and selectors' right-hand
	// sides are not bare mentions.
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.File:
			skip[n.Name] = true
		case *ast.FuncDecl:
			skip[n.Name] = true
			if n.Recv != nil {
				ast.Inspect(n.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.ImportSpec:
			if n.Name != nil {
				skip[n.Name] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				skip[x] = true
				use(ref{imports[x.Name], n.Sel.Name})
			} else {
				use(ref{"", n.Sel.Name})
			}
		case *ast.Ident:
			if !skip[n] {
				use(ref{dir, n.Name})
			}
		}
		return true
	})
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
		if allow[e.id()] {
			listed[e.id()] = true
			continue
		}
		msgs = append(msgs, fmt.Sprintf("%s %s: exported, reached by nothing; delete it or add it to %s with a reason", e.pos, e.id(), allowFile))
	}
	for id := range allow {
		if !listed[id] {
			stale = append(stale, fmt.Sprintf("%s: %s is reached or no longer declared; remove its line", allowFile, id))
		}
	}
	sort.Strings(stale)
	return append(msgs, stale...)
}
