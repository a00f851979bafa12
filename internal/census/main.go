// Command census is the repository's one static checker (DESIGN.md §3):
// every file keeps the architecture rules of rules.go, and every
// top-level declaration under internal/ is reachable from a main package
// — cmd/, examples/, bench/ — or stands in allow.txt with its reason.
//
//	go run ./internal/census
//
// It loads the root and bench modules (go list -deps -export: the
// standard library from export data, this repository from source),
// type-checks them and walks the reference graph from every function of
// every main package plus every init.  A method is reached when it is
// named directly, or when its receiver type is reached and implements an
// interface that declares the method and that reached code calls it
// through (or that the standard library declares).  Test files are not
// loaded: a declaration only tests use is unreachable.
//
// It prints "file:line rule: what" per violation and "file:line
// pkg.Name (lines)" per unreached declaration, and exits 1 on any, on a
// stale entry in allow.txt or globals.txt (the package state the
// global-state rule lets stand) and on more than maxAllowed allow.txt
// or maxGlobals globals.txt entries.  On success it prints how many globals.txt lists.
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
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// maxAllowed bounds the allowlist: it is for the few declarations the
// paper needs and no program drives yet, not a second way to keep code.
const maxAllowed = 40

// maxGlobals bounds globals.txt at its present length, so the package
// state it lists can shrink but not grow without an edit here that
// says why (ROADMAP item 2 gives each entry a node owner).
const maxGlobals = 45

func main() {
	if err := run(".", os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "census:", err)
		os.Exit(1)
	}
}

// run censuses the repository rooted at dir against its own lists.
func run(dir string, out io.Writer) error {
	allow, err := readList(dir, "allow.txt", maxAllowed)
	if err != nil {
		return err
	}
	globals, err := readList(dir, "globals.txt", maxGlobals)
	if err != nil {
		return err
	}
	unreached, broken, err := census(dir, allow, globals)
	for _, v := range broken {
		fmt.Fprintln(out, v)
	}
	for _, d := range unreached {
		fmt.Fprintf(out, "%s:%d %s (%d)\n", d.file, d.line, d.name, d.lines)
	}
	switch {
	case err != nil:
		return err
	case len(broken) > 0:
		return fmt.Errorf("%d architecture rule violations (rules.go gives each rule's reason)", len(broken))
	case len(unreached) > 0:
		return fmt.Errorf("%d declarations under internal/ are reached by no program and not allowlisted", len(unreached))
	}
	fmt.Fprintf(out, "global-state: %d package-level vars hold shared state, each listed in globals.txt\n", len(globals))
	return nil
}

// readList reads the census list name beside this file.
func readList(dir, name string, max int) ([]string, error) {
	f, err := os.Open(filepath.Join(dir, "internal", "census", name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseList(f, name, max)
}

// parseList reads the list file as "pkg.Name — reason" lines; blank
// lines and # comments are skipped, a missing reason is an error, and
// so are more than max entries.
func parseList(r io.Reader, file string, max int) ([]string, error) {
	var names []string
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name — reason\"", file, n)
		}
		names = append(names, strings.TrimSpace(name))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(names) > max {
		return nil, fmt.Errorf("%s holds %d declarations, at most %d", file, len(names), max)
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
	root    string
	rel     map[string]string          // import path → slash path from root, for source packages
	deps    map[string]map[string]bool // import path → the slash paths of it and every source package it imports
	broken  []string                   // rule violations, "file:line rule: what"
	decls   map[types.Object]*decl
	order   []*decl // load order, for stable reports
	methods map[*types.TypeName][]*decl

	reached map[*decl]bool
	work    []*decl
	// ifaceCalls maps a method name to the interfaces declaring it that
	// reached code calls it through, and to every standard-library
	// interface declaring it: the standard library calls those itself.
	ifaceCalls map[string]map[*types.Interface]bool
	globals    map[string]bool // listed package vars → whether the global-state rule found one
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load type-checks the module at dir and, if there is one, the bench
// module beside it; globals are the package vars the global-state rule
// lets hold shared state.
func load(dir string, globals []string) (*graph, error) {
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
		root:       abs,
		rel:        map[string]string{},
		deps:       map[string]map[string]bool{},
		decls:      map[types.Object]*decl{},
		methods:    map[*types.TypeName][]*decl{},
		reached:    map[*decl]bool{},
		ifaceCalls: map[string]map[*types.Interface]bool{},
		globals:    map[string]bool{},
	}
	for _, name := range globals {
		g.globals[name] = false
	}
	exports := map[string]string{}
	src := map[string]*types.Package{} // source-checked, served before export data
	gc := importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := src[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	stdSeen := map[string]bool{}
	for _, p := range pkgs {
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		if src[p.ImportPath] != nil {
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
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}, // for the rules
		}
		tp, err := (&types.Config{Importer: imp}).Check(p.ImportPath, g.fset, files, info)
		if err != nil {
			return nil, err
		}
		src[p.ImportPath] = tp
		rel, _ := filepath.Rel(abs, p.Dir)
		g.rel[p.ImportPath] = filepath.ToSlash(rel)
		deps := map[string]bool{g.rel[p.ImportPath]: true}
		for _, dep := range tp.Imports() {
			if src[dep.Path()] == nil && !stdSeen[dep.Path()] {
				stdSeen[dep.Path()] = true
				g.addStdInterfaces(dep)
			}
			maps.Copy(deps, g.deps[dep.Path()])
		}
		g.deps[p.ImportPath] = deps
		g.check(tp, files, info)
		g.addDecls(p, filepath.ToSlash(rel), files, info)
	}
	g.callVia(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return g, nil
}

// path is the slash path from the root of the file holding pos.
func (g *graph) path(pos token.Pos) string {
	rel, _ := filepath.Rel(g.root, g.fset.Position(pos).Filename)
	return filepath.ToSlash(rel)
}

func (g *graph) addStdInterfaces(p *types.Package) {
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				g.callVia(it)
			}
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
				} else if d := add(top.Name, top, recvName(top)+"."); d != nil {
					if owner, ok := d.obj.Pkg().Scope().Lookup(recvName(top)).(*types.TypeName); ok {
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

// recvName is the name of the type a method is declared on.
func recvName(fd *ast.FuncDecl) string {
	name, _, _ := strings.Cut(strings.Trim(types.ExprString(fd.Recv.List[0].Type), "*()"), "[")
	return name
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
				g.callVia(recv.Type().Underlying().(*types.Interface), fn.Name())
				return true
			}
			obj = fn.Origin() // a method of an instantiated generic type → its declaration
		}
		g.mark(g.decls[obj])
		return true
	})
}

// callVia records that the named methods of it, or all of them when
// none are named, are called through it.
func (g *graph) callVia(it *types.Interface, names ...string) {
	if len(names) == 0 {
		for i := range it.NumMethods() {
			names = append(names, it.Method(i).Name())
		}
	}
	for _, name := range names {
		if g.ifaceCalls[name] == nil {
			g.ifaceCalls[name] = map[*types.Interface]bool{}
		}
		g.ifaceCalls[name][it] = true
	}
}

// viaIface reports whether the method of owner named method is called
// through an interface that owner, or a pointer to it, implements.  A
// generic type is taken to implement any interface declaring the name.
func (g *graph) viaIface(owner *types.TypeName, method string) bool {
	switch method {
	case "Unwrap", "Is", "As", "Timeout", "Temporary", "Format", "GoString":
		return true // looked for by errors, net and fmt through unexported interfaces
	}
	named, ok := owner.Type().(*types.Named)
	if !ok {
		return false
	}
	generic := named.TypeParams().Len() > 0
	for it := range g.ifaceCalls[method] {
		if generic || types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
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
				if !g.reached[m] && g.viaIface(owner, m.obj.Name()) {
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
// allowlisted ones are taken as extra roots, in load order, and the rule
// violations.  A stale entry of either list is an error; the results
// are still returned.
func census(dir string, allow, globals []string) ([]*decl, []string, error) {
	g, err := load(dir, globals)
	if err != nil {
		return nil, nil, err
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
	for _, name := range globals {
		if !g.globals[name] {
			stale = append(stale, name+" (holds no package state)")
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
		return unreached, g.broken, fmt.Errorf("stale list entries:\n  %s", strings.Join(stale, "\n  "))
	}
	return unreached, g.broken, nil
}
