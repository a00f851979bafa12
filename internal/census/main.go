// Command census is the surface gate (DESIGN.md §3): every top-level
// declaration under internal/ must be reachable from a main package —
// cmd/, examples/, bench/ — or stand in allow.txt with its reason.
//
//	go run ./internal/census
//
// It loads the root module and the bench module (go list -deps -export:
// the standard library comes from export data, this repository from
// source), type-checks with go/types and walks the reference graph from
// every function of every main package plus every init.  A method is
// reached when it is named directly, or when its receiver type is
// reached and a method of that name is called through an interface from
// code that is itself reached (or a standard-library interface the type
// implements carries it: the library's own calls are not visible).
// Test files are not loaded: a declaration only tests use is
// unreachable, which is the point.
//
// It prints "file:line pkg.Name (lines)" per unreached declaration and
// exits 1 on any, on an allowlist entry that is reachable without the
// list or names nothing (stale), and on more than maxAllowed entries.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// maxAllowed bounds the allowlist: it is for the few declarations the
// paper needs and no program drives yet, not a second way to keep code.
const maxAllowed = 40

func main() {
	if err := run(".", os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "census:", err)
		os.Exit(1)
	}
}

// run censuses the repository rooted at dir against its own allowlist.
func run(dir string, out io.Writer) error {
	f, err := os.Open(filepath.Join(dir, "internal", "census", "allow.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	allow, err := parseAllow(f)
	if err != nil {
		return err
	}
	unreached, err := census(dir, allow)
	for _, d := range unreached {
		fmt.Fprintf(out, "%s:%d %s (%d)\n", d.file, d.line, d.name, d.lines)
	}
	if err != nil {
		return err
	}
	if len(unreached) > 0 {
		return fmt.Errorf("%d declarations under internal/ are reached by no program and not allowlisted", len(unreached))
	}
	return nil
}

// parseAllow reads "pkg.Name — reason" lines; blank lines and # comments
// are skipped, a missing reason is an error.
func parseAllow(r io.Reader) ([]string, error) {
	var names []string
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("allow.txt:%d: want \"pkg.Name — reason\"", n)
		}
		names = append(names, strings.TrimSpace(name))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(names) > maxAllowed {
		return nil, fmt.Errorf("allow.txt holds %d declarations, at most %d", len(names), maxAllowed)
	}
	return names, nil
}

// A decl is one package-level object or method of a source package.
type decl struct {
	obj    types.Object
	info   *types.Info
	node   ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	group  []*decl  // the other constants of an iota block: one enumeration, reached together
	name   string   // "pkg.Name" or "pkg.Type.Method"; empty outside the censused packages
	file   string
	line   int
	lines  int
	inMain bool
}

type listed struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
}

// goList returns the packages of the module at dir and everything they
// import, dependencies first.
func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Name,Dir,Export,Standard,GoFiles", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(outb)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// A graph is the loaded program: every declaration of every source
// package, and what has been reached so far.
type graph struct {
	fset    *token.FileSet
	decls   map[types.Object]*decl
	order   []*decl // load order, for stable reports
	methods map[*types.TypeName][]*decl
	std     []*types.Interface // the standard library's named interfaces

	reached    map[*decl]bool
	work       []*decl
	ifaceCalls map[string]bool // method names called through an interface from reached code
}

// srcImporter serves source-checked packages first and export data for
// the rest.
type srcImporter struct {
	src map[string]*types.Package
	gc  types.Importer
}

func (i srcImporter) Import(path string) (*types.Package, error) {
	if p := i.src[path]; p != nil {
		return p, nil
	}
	return i.gc.Import(path)
}

// load type-checks the module at dir and, if there is one, the bench
// module beside it.
func load(dir string) (*graph, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := goList(abs)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(abs, "bench", "go.mod")); err == nil {
		more, err := goList(filepath.Join(abs, "bench"))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, more...)
	}

	g := &graph{
		fset:       token.NewFileSet(),
		decls:      map[types.Object]*decl{},
		methods:    map[*types.TypeName][]*decl{},
		reached:    map[*decl]bool{},
		ifaceCalls: map[string]bool{},
	}
	exports := map[string]string{}
	imp := srcImporter{src: map[string]*types.Package{}}
	imp.gc = importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	stdSeen := map[string]bool{}
	for _, p := range pkgs {
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		if imp.src[p.ImportPath] != nil {
			continue // listed by both modules
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(g.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}
		tp, err := (&types.Config{Importer: imp}).Check(p.ImportPath, g.fset, files, info)
		if err != nil {
			return nil, err
		}
		imp.src[p.ImportPath] = tp
		for _, dep := range tp.Imports() {
			if imp.src[dep.Path()] == nil && !stdSeen[dep.Path()] {
				stdSeen[dep.Path()] = true
				g.addStdInterfaces(dep)
			}
		}
		rel, _ := filepath.Rel(abs, p.Dir)
		g.addDecls(p, filepath.ToSlash(rel), files, info)
	}
	g.std = append(g.std, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return g, nil
}

func (g *graph) addStdInterfaces(p *types.Package) {
	scope := p.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			g.std = append(g.std, it)
		}
	}
}

// censused reports whether declarations in the package at rel (slash
// path from the repository root) are held to the rule: everything under
// internal/ but commands (this one) and test support.
func censused(p listed, rel string) bool {
	return strings.HasPrefix(rel, "internal/") && p.Name != "main" &&
		rel != "internal/transport/transporttest"
}

func (g *graph) addDecls(p listed, rel string, files []*ast.File, info *types.Info) {
	held := censused(p, rel)
	add := func(id *ast.Ident, node ast.Node, recv string) *decl {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		pos, end := g.fset.Position(node.Pos()), g.fset.Position(node.End())
		d := &decl{
			obj: obj, info: info, node: node,
			file: filepath.ToSlash(filepath.Join(rel, filepath.Base(pos.Filename))), line: pos.Line,
			lines:  end.Line - pos.Line + 1,
			inMain: p.Name == "main",
		}
		if held {
			d.name = strings.TrimPrefix(rel, "internal/") + "." + recv + id.Name
		}
		g.decls[obj] = d
		g.order = append(g.order, d)
		return d
	}
	for _, f := range files {
		for _, top := range f.Decls {
			switch top := top.(type) {
			case *ast.FuncDecl:
				if top.Recv == nil {
					add(top.Name, top, "")
					continue
				}
				tn := receiverName(top.Recv.List[0].Type)
				if d := add(top.Name, top, tn.Name+"."); d != nil {
					if owner, ok := info.Uses[tn].(*types.TypeName); ok {
						g.methods[owner] = append(g.methods[owner], d)
					}
				}
			case *ast.GenDecl:
				var enum []*decl
				isEnum := false
				for _, spec := range top.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec, "")
					case *ast.ValueSpec:
						if top.Tok == token.CONST && (len(spec.Values) == 0 || usesIota(spec)) {
							isEnum = true
						}
						for _, id := range spec.Names {
							if d := add(id, spec, ""); d != nil && top.Tok == token.CONST {
								enum = append(enum, d)
							}
						}
					}
				}
				if isEnum {
					for _, d := range enum {
						d.group = enum
					}
				}
			}
		}
	}
}

func receiverName(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t
		default:
			return &ast.Ident{Name: "?"}
		}
	}
}

func usesIota(spec *ast.ValueSpec) bool {
	found := false
	for _, v := range spec.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}

func (g *graph) mark(d *decl) {
	if d == nil || g.reached[d] {
		return
	}
	g.reached[d] = true
	g.work = append(g.work, d)
	for _, other := range d.group {
		g.mark(other)
	}
}

// scan follows every identifier d's declaration uses.
func (g *graph) scan(d *decl) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := d.info.Uses[id]
		if obj == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				g.ifaceCalls[fn.Name()] = true
				return true
			}
			obj = fn.Origin() // a method of an instantiated generic type → its declaration
		}
		g.mark(g.decls[obj])
		return true
	})
}

// viaStd reports whether a standard-library interface that the method's
// receiver type implements declares a method of its name.
func (g *graph) viaStd(owner *types.TypeName, method string) bool {
	switch method {
	case "Unwrap", "Is", "As", "Timeout", "Temporary", "Format", "GoString":
		return true // looked for by errors, net and fmt through unexported interfaces
	}
	named, ok := owner.Type().(*types.Named)
	if !ok {
		return false
	}
	generic := named.TypeParams().Len() > 0
	for _, it := range g.std {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (generic || types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// settle runs the graph to its fixed point from whatever is marked.
func (g *graph) settle() {
	for {
		for len(g.work) > 0 {
			d := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			g.scan(d)
		}
		for owner, ms := range g.methods {
			if !g.reached[g.decls[owner]] {
				continue
			}
			for _, m := range ms {
				if !g.reached[m] && (g.ifaceCalls[m.obj.Name()] || g.viaStd(owner, m.obj.Name())) {
					g.mark(m)
				}
			}
		}
		if len(g.work) == 0 {
			return
		}
	}
}

// census returns the censused declarations no program reaches once the
// allowlisted ones are taken as extra roots, in load order.  A stale
// allowlist entry is an error; the list is still returned.
func census(dir string, allow []string) ([]*decl, error) {
	g, err := load(dir)
	if err != nil {
		return nil, err
	}
	for _, d := range g.order {
		if fn, ok := d.node.(*ast.FuncDecl); ok && (d.inMain || fn.Recv == nil && fn.Name.Name == "init") {
			g.mark(d)
		}
	}
	g.settle()

	byName := map[string]*decl{}
	for _, d := range g.order {
		if d.name != "" {
			byName[d.name] = d
		}
	}
	var stale []string
	for _, name := range allow {
		d := byName[name]
		switch {
		case d == nil:
			stale = append(stale, name+" (no such declaration)")
		case g.reached[d]:
			stale = append(stale, name+" (reachable without the allowlist)")
		}
	}
	for _, name := range allow {
		g.mark(byName[name])
	}
	g.settle()

	var unreached []*decl
	for _, d := range g.order {
		if d.name != "" && !g.reached[d] {
			unreached = append(unreached, d)
		}
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		return unreached, fmt.Errorf("stale allowlist entries:\n  %s", strings.Join(stale, "\n  "))
	}
	return unreached, nil
}
