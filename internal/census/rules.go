package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// A rule is one architecture invariant (DESIGN.md §3) over the files
// under in but not under except (slash paths from the root, a directory
// ending in "/", "file:Recv.Name" for one method): broken says what a
// node breaks, "" for nothing, given what an identifier uses.
type rule struct {
	name, reason string
	in, except   []string
	broken       func(s *scope, n ast.Node, uses types.Object) string
}

var rules = []rule{
	{"boundary", "the registry and the dispatch pipeline know nothing of media formats or radio physics (§9)",
		[]string{"internal/registry/", "internal/dispatch/"}, nil, noDeps("internal/media", "internal/radio")},
	{"leaf", "every layer takes an injected clock and reports into the one registry without a cycle (§8, §14)",
		[]string{"internal/clock/", "internal/metrics/"}, nil, noDeps()},
	{"fidelity", "replay runs the real kernels, not a private frame codec, order tracker or coordinator (§15)",
		[]string{"internal/replay/"}, nil,
		runsOn("internal/core", "encodeData", "decodeData", "encodeNack", "tracker", "coordHandler")},
	{"kernel-purity", "the sans-IO kernels, the frame view they read through and the order buffer they run start, wait on and read nothing (§3, §7)",
		[]string{"internal/core/kernel.go", "internal/core/coordkernel.go", "internal/core/nack.go",
			"internal/message/view.go", "internal/message/intern.go", "internal/session/ordering.go"}, nil, kernelPure},
	{"ownership", "a received frame is retained, not copied; the network copies only what a caller keeps (§7.1)",
		[]string{"internal/message/view.go", "internal/message/fragment.go", "internal/apps/imageviewer.go",
			"internal/core/coordkernel.go", "internal/transport/engine.go"},
		[]string{"internal/transport/engine.go:node.Multicast", "internal/transport/engine.go:node.Unicast"}, noCopies},
	{"scheduling", "a wait goes through clock.Wall and virtual-time work is a clock.Virtual heap event, so a run reproduces on clock.Virtual (§14)",
		[]string{"internal/", "cmd/"}, []string{"internal/clock/"},
		uses("time", "After", "AfterFunc", "NewTicker", "NewTimer", "Sleep", "Tick")},
	{"clock-seam", "a raw wall-clock read de-synchronizes a recorded session from its replay (§14)",
		[]string{"internal/", "cmd/"}, []string{"internal/clock/"},
		uses("time", "Now", "Since", "Until")},
	{"passive-telemetry", "telemetry is ticked by its owner, so one ticker closes windows over one round of samples (§8, §16)",
		[]string{"internal/obs/", "internal/slo/", "internal/timeline/"}, nil,
		waits("NewTicker", "NewTimer", "Sleep")},
	{"passive-nodes", "a node is a handler that transport.Serve drives, so it runs inline on a DESNet's virtual time (§3, §14)",
		[]string{"internal/core/", "internal/basestation/"}, nil, drivesItself},
	{"global-state", "package state is shared by every session in a process, so each holder says why in globals.txt (ROADMAP item 2)",
		[]string{"internal/", "cmd/"}, nil, globalState},
	{"carried-sketch", "the station serves the sketch a share carries and relays the stream it is sent without reading it, and the sketch transform decodes nothing (§17)",
		[]string{"internal/basestation/", "internal/media/transformers.go"}, nil, carriedSketch},
	{"sorted-attrs", "a message's attributes are one name-sorted slice, set with SetAttrs and read through Attr, NumAttrs or EachAttr: the map form, Message.Attrs, is the benchmark's until it goes (§7.5, ROADMAP item 20)",
		[]string{"internal/", "cmd/", "examples/"}, []string{"internal/message/"}, usesAttrsMap},
}

// A scope is one package a rule covers files of.
type scope struct {
	g     *graph
	pkg   *types.Package
	info  *types.Info
	first *ast.File // the first covered file
}

// check holds the files of one loaded package to every rule.
func (g *graph) check(pkg *types.Package, files []*ast.File, info *types.Info) {
	under := func(list []string, path string) bool {
		return slices.ContainsFunc(list, func(e string) bool {
			return e == path || strings.HasSuffix(e, "/") && strings.HasPrefix(path, e)
		})
	}
	for _, r := range rules {
		s := &scope{g: g, pkg: pkg, info: info}
		for _, f := range files {
			if path := g.path(f.Pos()); !under(r.in, path) || under(r.except, path) {
				continue
			} else if s.first == nil {
				s.first = f
			}
			ast.Inspect(f, func(n ast.Node) bool {
				fd, _ := n.(*ast.FuncDecl)
				if n == nil || fd != nil && fd.Recv != nil && slices.Contains(r.except, g.path(n.Pos())+":"+recvName(fd)+"."+fd.Name.Name) {
					return false
				}
				id, _ := n.(*ast.Ident)
				if what := r.broken(s, n, info.Uses[id]); what != "" {
					g.broken = append(g.broken, fmt.Sprintf("%s:%d %s: %s", g.path(n.Pos()), g.fset.Position(n.Pos()).Line, r.name, what))
				}
				return true
			})
		}
	}
}

// is reports whether obj is one of the named package-level objects of
// the package at key: its import path, or its slash path from the root.
func (g *graph) is(obj types.Object, key string, names ...string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Scope().Lookup(obj.Name()) == obj &&
		slices.Contains(names, obj.Name()) && (g.rel[obj.Pkg().Path()] == key || obj.Pkg().Path() == key)
}

// noDeps flags an import of a package that is or depends on one of
// banned — or, with none given, any import from this module.
func noDeps(banned ...string) func(*scope, ast.Node, types.Object) string {
	return func(s *scope, n ast.Node, _ types.Object) string {
		spec, ok := n.(*ast.ImportSpec)
		if !ok {
			return ""
		}
		path, _ := strconv.Unquote(spec.Path.Value)
		deps, local := s.g.deps[path]
		for _, b := range banned {
			if deps[b] {
				return "depends on " + b + " (import " + s.g.rel[path] + ")"
			}
		}
		if local && len(banned) == 0 {
			return "imports " + s.g.rel[path]
		}
		return ""
	}
}

// runsOn requires the package to depend on dep and to declare none of
// names at package level.
func runsOn(dep string, names ...string) func(*scope, ast.Node, types.Object) string {
	return func(s *scope, n ast.Node, _ types.Object) string {
		id, _ := n.(*ast.Ident)
		if n == s.first && !s.g.deps[s.pkg.Path()][dep] {
			return "does not depend on " + dep
		} else if id != nil && slices.Contains(names, id.Name) && s.pkg.Scope().Lookup(id.Name) == s.info.Defs[id] {
			return "declares " + id.Name
		}
		return ""
	}
}

func kernelPure(s *scope, n ast.Node, obj types.Object) string {
	switch n := n.(type) {
	case *ast.GoStmt:
		return "go statement"
	case *ast.SelectStmt:
		return "select statement"
	case *ast.SendStmt:
		return "send statement"
	case *ast.ChanType:
		return "channel type"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "receive"
		}
	case ast.Expr:
		if t := s.info.Types[n].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "channel-typed " + types.ExprString(n)
			}
		}
	}
	if s.g.is(obj, "internal/clock", "Wall") {
		return "uses clock." + obj.Name()
	}
	return ""
}

// noCopies flags a call that returns a fresh copy of a byte slice.
func noCopies(s *scope, n ast.Node, _ types.Object) string {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || s.info.Types[call].Type == nil ||
		!types.Identical(s.info.Types[call].Type.Underlying(), types.NewSlice(types.Typ[types.Byte])) {
		return ""
	}
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X // slices.Clone[[]byte]
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	conv, _ := call.Args[0].(*ast.CallExpr) // append([]byte(nil), b...)
	switch obj := s.info.Uses[id]; {
	case s.g.is(obj, "bytes", "Clone"), s.g.is(obj, "slices", "Clone"):
		return "copies with " + obj.Pkg().Name() + ".Clone"
	case obj == types.Universe.Lookup("append") && conv != nil && len(conv.Args) == 1 &&
		s.info.Types[conv.Fun].IsType() && s.info.Types[conv.Args[0]].IsNil():
		return "copies with append onto a nil []byte"
	}
	return ""
}

// waits flags a use of one of the named methods of a type the clock
// package declares — clock.Wall's, the one clock that waits — called
// or taken as a value.
func waits(names ...string) func(*scope, ast.Node, types.Object) string {
	return func(s *scope, _ ast.Node, obj types.Object) string {
		fn, ok := obj.(*types.Func)
		if !ok || !slices.Contains(names, fn.Name()) || s.g.rel[fn.Pkg().Path()] != "internal/clock" {
			return ""
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return ""
		}
		return "uses " + types.TypeString(recv.Type(), (*types.Package).Name) + "." + fn.Name()
	}
}

// drivesItself flags a go or select statement, or a wait on a clock.
func drivesItself(s *scope, n ast.Node, obj types.Object) string {
	switch n.(type) {
	case *ast.GoStmt:
		return "go statement"
	case *ast.SelectStmt:
		return "select statement"
	}
	return waits("NewTicker", "NewTimer", "Sleep")(s, n, obj)
}

// uses flags a use of one of the named package-level objects of pkg,
// however the import is spelled and whether called or taken as a value.
func uses(pkg string, names ...string) func(*scope, ast.Node, types.Object) string {
	return func(s *scope, _ ast.Node, obj types.Object) string {
		if s.g.is(obj, pkg, names...) {
			return "uses " + pkg + "." + obj.Name()
		}
		return ""
	}
}

// carriedSketch flags, in the base station, any use of internal/wavelet
// and, in the media transformers, a decode.
func carriedSketch(s *scope, n ast.Node, obj types.Object) string {
	if !strings.HasPrefix(s.g.path(n.Pos()), "internal/basestation/") {
		return uses("internal/wavelet", "Decode", "DecodeLuma", "DecodeColor")(s, n, obj)
	} else if obj != nil && obj.Pkg() != nil && s.g.rel[obj.Pkg().Path()] == "internal/wavelet" {
		return "uses internal/wavelet." + obj.Name()
	}
	return ""
}

// usesAttrsMap flags any use of the Attrs field of message.Message: a
// read, a write, or a key of a composite literal.
func usesAttrsMap(s *scope, _ ast.Node, uses types.Object) string {
	if v, _ := uses.(*types.Var); v != nil && v.IsField() && v.Name() == "Attrs" && s.g.rel[v.Pkg().Path()] == "internal/message" {
		return "uses message.Message.Attrs"
	}
	return ""
}

// globalState flags a package-level var that can hold shared mutable
// state — its type is a map, slice, pointer or channel, a sync or
// sync/atomic type, or a struct or array holding one — unless
// globals.txt lists it.
func globalState(s *scope, n ast.Node, _ types.Object) string {
	id, _ := n.(*ast.Ident)
	v, _ := s.info.Defs[id].(*types.Var)
	if v == nil || v.Name() == "_" || v.Parent() != s.pkg.Scope() {
		return ""
	}
	what := holds(v.Type(), map[types.Type]bool{})
	if what == "" {
		return ""
	}
	name := strings.TrimPrefix(s.g.rel[s.pkg.Path()], "internal/") + "." + v.Name()
	if _, listed := s.g.globals[name]; listed {
		s.g.globals[name] = true
		return ""
	}
	return "var " + v.Name() + " holds " + what
}

// holds names the first thing in t that makes it shared state, or "".
func holds(t types.Type, seen map[types.Type]bool) string {
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		if p := n.Obj().Pkg(); p.Path() == "sync" || p.Path() == "sync/atomic" {
			return p.Name() + "." + n.Obj().Name()
		}
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Map:
		return "a map"
	case *types.Slice:
		return "a slice"
	case *types.Pointer:
		return "a pointer"
	case *types.Chan:
		return "a channel"
	case *types.Array:
		return holds(u.Elem(), seen)
	case *types.Struct:
		for i := range u.NumFields() {
			if what := holds(u.Field(i).Type(), seen); what != "" {
				return what
			}
		}
	}
	return ""
}
