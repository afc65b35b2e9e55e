// Package poolrelease enforces pooled-session hygiene: every locally
// held value whose incremental engine comes from phonocmap's engine
// pool — Problem.NewSwapSession, analysis.NewIncremental and
// analysis.NewTableIncremental — must be released (Release/Close) on
// some path of the acquiring function, or demonstrably handed off
// (stored into a field, slice, map or channel, returned, or passed to
// another function that assumes ownership). A session that is neither
// keeps its incremental engine's buffers out of the shared sync.Pool
// forever — the exact leak class the 0-allocs/op hot-path contract
// exists to prevent, and one no differential test can see.
package poolrelease

import (
	"go/ast"
	"go/types"
	"strings"

	"phonocmap/lint/analysis"
	"phonocmap/lint/directive"
)

// Analyzer is the pooled-session hygiene check.
var Analyzer = &analysis.Analyzer{
	Name: "phonopoolrelease",
	Doc: `require Release/Close (or ownership hand-off) for pooled evaluation sessions

Acquisition sites are calls to core's NewSwapSession and analysis's
NewIncremental / NewTableIncremental. The acquired value must either be
released in the same function (directly or via defer) or escape into
longer-lived state whose owner releases it. Discarding one with _ is
always an error. A deliberate exception carries
//phonocmap:release-ok <why>.`,
	Run: run,
}

// acquirers maps function names to the package-path suffix they must
// come from.
var acquirers = map[string]string{
	"NewSwapSession":      "internal/core",
	"NewIncremental":      "internal/analysis",
	"NewTableIncremental": "internal/analysis",
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.SourceFiles() {
		dirs := directive.Parse(pass.Fset, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, dirs)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, dirs *directive.Map) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAcquire(pass, call) {
			return true
		}
		if dirs.At("release-ok", call) {
			return true
		}
		name := acquireName(call)
		obj, kind := bindingOf(pass, fn.Body, call)
		switch kind {
		case boundEscapes:
			return true // result feeds directly into a longer-lived structure
		case boundBlank:
			pass.Reportf(call.Pos(),
				"%s result discarded with _: the pooled session can never be released; bind it and Release it (or annotate //phonocmap:release-ok <why>)", name)
			return true
		case boundNone:
			pass.Reportf(call.Pos(),
				"%s result is not bound to a variable: the pooled session can never be released", name)
			return true
		}
		if releasedOrEscapes(pass, fn.Body, obj, call) {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s acquires a pooled session that %q never releases: call %s.Release (ideally deferred) on every path, hand it off to an owner, or annotate //phonocmap:release-ok <why>",
			name, fnName(fn), obj.Name())
		return true
	})
}

func fnName(fn *ast.FuncDecl) string { return fn.Name.Name }

// isAcquire reports whether the call acquires a pooled session.
func isAcquire(pass *analysis.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	wantPkg, ok := acquirers[fn.Name()]
	if !ok {
		return false
	}
	path := fn.Pkg().Path()
	if path != wantPkg && !strings.HasSuffix(path, "/"+wantPkg) {
		return false
	}
	// Inside the defining package the constructor itself (and its
	// helpers) legitimately hold unreleased values mid-construction.
	return pass.Pkg.Path() != path
}

func acquireName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "acquire"
}

type binding int

const (
	boundVar     binding = iota // assigned to a plain local variable
	boundBlank                  // assigned to _
	boundEscapes                // used directly in a hand-off position
	boundNone                   // bare expression statement
)

// bindingOf classifies how the acquire call's result is captured and,
// for boundVar, which object holds it.
func bindingOf(pass *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr) (types.Object, binding) {
	var obj types.Object
	kind := boundNone
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if ast.Unparen(rhs) != call {
					continue
				}
				// Multi-value acquire (v, err := ...): the session is result 0.
				lhs := n.Lhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					lhs = n.Lhs[i]
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					if l.Name == "_" {
						kind = boundBlank
						return false
					}
					obj = pass.TypesInfo.ObjectOf(l)
					kind = boundVar
				default:
					// Assigned straight into a field/index: owner hand-off.
					kind = boundEscapes
				}
				return false
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if ast.Unparen(v) != call {
					continue
				}
				if i < len(n.Names) {
					if n.Names[i].Name == "_" {
						kind = boundBlank
					} else {
						obj = pass.TypesInfo.ObjectOf(n.Names[i])
						kind = boundVar
					}
				}
				return false
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if containsCall(r, call) {
					kind = boundEscapes
					return false
				}
			}
		case *ast.CallExpr:
			if n == call {
				return true
			}
			for _, arg := range n.Args {
				if containsCall(arg, call) {
					kind = boundEscapes
					return false
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if containsCall(el, call) {
					kind = boundEscapes
					return false
				}
			}
		case *ast.SendStmt:
			if containsCall(n.Value, call) {
				kind = boundEscapes
				return false
			}
		}
		return kind == boundNone || obj != nil
	})
	if kind == boundVar && obj == nil {
		kind = boundNone
	}
	return obj, kind
}

func containsCall(e ast.Expr, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if n == call {
			found = true
		}
		return !found
	})
	return found
}

// releasedOrEscapes reports whether the bound session object is either
// released in this function or handed off to longer-lived state.
func releasedOrEscapes(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object, acquire *ast.CallExpr) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if n == acquire {
				return true
			}
			// v.Release() / v.Close()
			if sel, isSel := ast.Unparen(n.Fun).(*ast.SelectorExpr); isSel {
				if (sel.Sel.Name == "Release" || sel.Sel.Name == "Close") && usesObject(pass, sel.X, obj) {
					ok = true
					return false
				}
			}
			// v passed to another function (not a method ON v): hand-off.
			for _, arg := range n.Args {
				if id, isID := ast.Unparen(arg).(*ast.Ident); isID && pass.TypesInfo.ObjectOf(id) == obj {
					ok = true
					return false
				}
			}
		case *ast.AssignStmt:
			// field/index/map slot = v: hand-off to an owner.
			for i, rhs := range n.Rhs {
				if id, isID := ast.Unparen(rhs).(*ast.Ident); !isID || pass.TypesInfo.ObjectOf(id) != obj {
					continue
				} else {
					_ = id
				}
				lhs := n.Lhs[0]
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i]
				}
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					ok = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, isKV := el.(*ast.KeyValueExpr); isKV {
					e = kv.Value
				}
				if id, isID := ast.Unparen(e).(*ast.Ident); isID && pass.TypesInfo.ObjectOf(id) == obj {
					ok = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, isID := ast.Unparen(r).(*ast.Ident); isID && pass.TypesInfo.ObjectOf(id) == obj {
					ok = true
					return false
				}
			}
		case *ast.SendStmt:
			if id, isID := ast.Unparen(n.Value).(*ast.Ident); isID && pass.TypesInfo.ObjectOf(id) == obj {
				ok = true
				return false
			}
		}
		return true
	})
	return ok
}

// usesObject reports whether expression e roots at obj.
func usesObject(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(t) == obj
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return false
		}
	}
}
