// Package determinism statically enforces the bit-identical-results
// contract of phonocmap's evaluation and reporting pipeline (the
// invariant the differential suites check dynamically): contract
// packages must not read wall clocks into result data, must not draw
// from the global math/rand stream, and must not let map iteration
// order leak into slices, result fields or JSON.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"phonocmap/lint/analysis"
	"phonocmap/lint/directive"
)

// Analyzer is the determinism contract check.
var Analyzer = &analysis.Analyzer{
	Name: "phonodeterminism",
	Doc: `enforce the bit-identical-results contract in phonocmap's contract packages

In internal/core, internal/search, internal/scenario, internal/sweep,
internal/analysis, internal/network and internal/robust:

  - time.Now / time.Since calls must carry a //phonocmap:wallclock
    justification: the only sanctioned wall-clock reads are the ones
    feeding explicitly non-contractual fields (RunResult.Duration,
    trace AtMs).
  - package-level math/rand functions are forbidden: all randomness
    must flow from an explicitly seeded *rand.Rand.
  - a range over a map whose body appends to an outer slice, writes an
    outer field, accumulates floats or strings, or feeds json.Marshal
    is flagged unless the collected value is sorted immediately after
    the loop or the loop carries a //phonocmap:ordered justification.`,
	Run: run,
}

// contractPackages are the package-path suffixes the determinism
// contract covers — the packages whose outputs join differential
// equivalence tests or content-addressed cache keys.
var contractPackages = []string{
	"internal/core",
	"internal/search",
	"internal/scenario",
	"internal/sweep",
	"internal/analysis",
	"internal/network",
	"internal/robust",
}

func run(pass *analysis.Pass) (any, error) {
	if !pass.PkgPathHasSuffix(contractPackages...) {
		return nil, nil
	}
	for _, file := range pass.SourceFiles() {
		dirs := directive.Parse(pass.Fset, file)
		checkClockAndRand(pass, file, dirs)
		checkMapRanges(pass, file, dirs)
	}
	return nil, nil
}

// --- wall clock and global rand ---

func checkClockAndRand(pass *analysis.Pass, file *ast.File, dirs *directive.Map) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if (fn.Name() == "Now" || fn.Name() == "Since") && !dirs.At("wallclock", call) {
				pass.Reportf(call.Pos(),
					"time.%s in a determinism-contract package: results must not depend on wall clocks; route the value into a non-contractual field and annotate with //phonocmap:wallclock <why>",
					fn.Name())
			}
		case "math/rand", "math/rand/v2":
			// Constructors (New, NewSource, NewPCG, NewZipf, ...) are how
			// seeded generators are built; only the package-level functions
			// that draw from the hidden global stream are violations.
			if fn.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
				pass.Reportf(call.Pos(),
					"global %s.%s in a determinism-contract package: draw from an explicitly seeded *rand.Rand instead",
					fn.Pkg().Name(), fn.Name())
			}
		}
		return true
	})
}

// calleeFunc resolves a call's static callee, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// --- map iteration order ---

// checkMapRanges walks every statement list so that a flagged range can
// be absolved by a sort call later in the same list.
func checkMapRanges(pass *analysis.Pass, file *ast.File, dirs *directive.Map) {
	ast.Inspect(file, func(n ast.Node) bool {
		var stmts []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			stmts = n.List
		case *ast.CaseClause:
			stmts = n.Body
		case *ast.CommClause:
			stmts = n.Body
		default:
			return true
		}
		for i, stmt := range stmts {
			rng, ok := stmt.(*ast.RangeStmt)
			if !ok {
				continue
			}
			if t := pass.TypesInfo.TypeOf(rng.X); t == nil {
				continue
			} else if _, isMap := t.Underlying().(*types.Map); !isMap {
				continue
			}
			if dirs.At("ordered", rng) {
				continue
			}
			checkOneMapRange(pass, rng, stmts[i+1:])
		}
		return true
	})
}

// checkOneMapRange reports order-leaking writes inside one map-range
// body; rest is the statement tail after the loop, searched for
// absolving sort calls.
func checkOneMapRange(pass *analysis.Pass, rng *ast.RangeStmt, rest []ast.Stmt) {
	body := rng.Body
	outer := func(e ast.Expr) (types.Object, bool) {
		obj := rootObject(pass, e)
		if obj == nil {
			return nil, false
		}
		// Declared inside the loop body => per-iteration state, no leak.
		if obj.Pos() >= body.Pos() && obj.Pos() <= body.End() {
			return obj, false
		}
		return obj, true
	}

	ast.Inspect(body, func(n ast.Node) bool {
		// Nested map ranges get their own report; don't double-walk.
		if inner, ok := n.(*ast.RangeStmt); ok && inner != rng {
			if t := pass.TypesInfo.TypeOf(inner.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return false
				}
			}
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isAppendCall(pass, n) && len(n.Args) > 0 {
				if obj, isOuter := outer(n.Args[0]); isOuter {
					if !sortedAfter(pass, rest, obj) {
						pass.Reportf(n.Pos(),
							"append to %q inside a map range: iteration order leaks into the slice; sort it after the loop or annotate the range with //phonocmap:ordered <why>",
							obj.Name())
					}
				}
				return true
			}
			if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "encoding/json" &&
				(fn.Name() == "Marshal" || fn.Name() == "MarshalIndent" || fn.Name() == "Encode") {
				pass.Reportf(n.Pos(),
					"json encoding inside a map range: emit into a sorted collection after the loop or annotate the range with //phonocmap:ordered <why>")
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, n, outer)
		}
		return true
	})
}

// checkMapRangeAssign flags order-dependent writes to state that
// outlives the loop iteration.
func checkMapRangeAssign(pass *analysis.Pass, as *ast.AssignStmt, outer func(ast.Expr) (types.Object, bool)) {
	for _, lhs := range as.Lhs {
		sel, isSel := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !isSel {
			// Plain identifiers and index expressions: scalar accumulation
			// into a local (sum += x) and keyed map writes are the
			// established order-independent idioms; only compound float and
			// string accumulation is order-sensitive enough to flag.
			if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
				continue
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if _, isOuter := outer(id); isOuter && nonAssociative(pass, id, as.Tok) {
					pass.Reportf(as.Pos(),
						"%s accumulation of %q inside a map range is iteration-order dependent (%s is non-associative on this type); collect and sort first or annotate with //phonocmap:ordered <why>",
						as.Tok, id.Name, as.Tok)
				}
			}
			continue
		}
		obj, isOuter := outer(sel)
		if !isOuter {
			continue
		}
		if as.Tok != token.ASSIGN && !nonAssociative(pass, sel, as.Tok) {
			continue // integer-style compound accumulation commutes
		}
		pass.Reportf(as.Pos(),
			"write to field %s of %q inside a map range: last-writer/accumulation order depends on map iteration; make the write order-independent or annotate the range with //phonocmap:ordered <why>",
			sel.Sel.Name, obj.Name())
	}
}

// nonAssociative reports whether a compound assignment on the
// expression's type can produce different results under reordering:
// float arithmetic and string concatenation.
func nonAssociative(pass *analysis.Pass, e ast.Expr, tok token.Token) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch {
	case b.Info()&types.IsFloat != 0, b.Info()&types.IsComplex != 0:
		return tok != token.ASSIGN
	case b.Info()&types.IsString != 0:
		return tok == token.ADD_ASSIGN
	}
	return false
}

// isAppendCall reports whether the call is the append builtin.
func isAppendCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rootObject resolves the base identifier of x, x.f, x[i], *x, x[:] chains.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(t)
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether any statement after the loop sorts the
// collected object: a call to sort.* or slices.Sort* whose first
// argument (or sort.Sort-style sole argument) roots at obj.
func sortedAfter(pass *analysis.Pass, rest []ast.Stmt, obj types.Object) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			pkg := fn.Pkg().Path()
			if pkg != "sort" && pkg != "slices" {
				return true
			}
			if !strings.HasPrefix(fn.Name(), "Sort") && !strings.HasPrefix(fn.Name(), "Slice") &&
				!isSortConvenience(fn.Name()) {
				return true
			}
			for _, arg := range call.Args {
				if rootObject(pass, arg) == obj {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isSortConvenience covers sort's typed helpers that don't start with
// Sort/Slice.
func isSortConvenience(name string) bool {
	switch name {
	case "Strings", "Ints", "Float64s", "Stable":
		return true
	}
	return false
}
