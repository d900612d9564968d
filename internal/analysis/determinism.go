package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// NondeterminismOK is the marker key that waives one statement from
// the determinism and seedsplit analyzers: //rths:nondeterminism-ok
// <reason>. The reason is mandatory — a bare marker is itself
// reported — and the waiver covers only the statement it trails (or
// the one directly below when the marker sits on its own line).
const NondeterminismOK = "nondeterminism-ok"

// deterministicPkgs names the packages whose outputs must be
// bit-reproducible for a fixed seed: equal (Config, Seed) must yield
// identical welfare/continuity on any host, at any fork width of the
// fork-join executor, and on both backends.
// Matched by the last element of the package path.
var deterministicPkgs = map[string]bool{
	"core":     true,
	"regret":   true,
	"distsim":  true,
	"cluster":  true,
	"markov":   true,
	"xrand":    true,
	"alloc":    true,
	"trace":    true,
	"forkjoin": true,
}

// IsDeterministicPkg reports whether the package path names one of the
// packages under the bit-reproducibility contract.
func IsDeterministicPkg(path string) bool {
	return deterministicPkgs[PkgPathBase(path)]
}

// Determinism rejects wall-clock reads (time.Now/Since/Until),
// math/rand imports, and order-sensitive map iteration inside the
// deterministic packages. Wall time must flow through the
// telemetry.MonotonicNow / SystemInstruments.Clock / distsim SpanClock
// seam so profiled runs have one stubbable clock; randomness must come
// from xrand streams; ordered state must be fed from sorted or
// index-ordered iteration.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall clocks, math/rand and order-sensitive map iteration " +
		"in the deterministic packages (statement-scoped opt-out: " +
		"//rths:nondeterminism-ok <reason>)",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	det := IsDeterministicPkg(pass.Pkg.Path())
	for _, f := range pass.Files {
		// Malformed opt-outs are reported everywhere, even in
		// non-deterministic packages: a reasonless waiver is noise that
		// suppresses nothing and must not look like it does.
		for _, ms := range pass.FileMarkers(f) {
			for _, m := range ms {
				if m.Key == NondeterminismOK && m.Reason == "" {
					pass.Reportf(m.Pos, "//rths:%s needs a reason: say which seam makes this safe", NondeterminismOK)
				}
			}
		}
		if !det || pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				if !pass.Suppressed(imp.Pos(), NondeterminismOK) {
					pass.Reportf(imp.Pos(), "deterministic package imports %s: draw from an xrand stream instead", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
					return true
				}
				switch fn.Name() {
				case "Now", "Since", "Until":
					if !pass.Suppressed(n.Pos(), NondeterminismOK) {
						pass.Reportf(n.Pos(), "wall-clock read time.%s in deterministic package: route it through the telemetry.MonotonicNow / SpanClock seam", fn.Name())
					}
				}
			case *ast.RangeStmt:
				t := pass.TypesInfo.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					return true
				}
				if why := mapRangeOrderSensitive(pass, n); why != "" && !pass.Suppressed(n.For, NondeterminismOK) {
					pass.Reportf(n.For, "map iteration order feeds %s: iterate sorted keys or annotate //rths:%s <reason>", why, NondeterminismOK)
				}
			}
			return true
		})
	}
	return nil
}

// mapRangeOrderSensitive reports why the body of a map-range loop is
// order-sensitive, or "" if every effect it has is commutative. The
// commutative core we accept without annotation: integer +=/-=/|=/&=/^=
// and ++/-- accumulation, boolean literal flag sets, delete(...), plain
// stores keyed by the loop key variable, and writes to variables local
// to the loop body. Everything else — appends, calls, sends, returns,
// float accumulation, ordered stores — depends on iteration order (or
// hides effects we cannot see) and is flagged.
func mapRangeOrderSensitive(pass *Pass, rs *ast.RangeStmt) string {
	keyObj := rangeVarObj(pass, rs.Key)
	body := rs.Body
	why := ""
	report := func(reason string) { why = reason }
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch calleeName(pass, n) {
			case "delete", "len", "cap", "min", "max":
				return true
			case "append":
				report("an appended slice")
			default:
				report("a function call")
			}
			return false
		case *ast.SendStmt:
			report("a channel send")
			return false
		case *ast.ReturnStmt:
			report("an early return")
			return false
		case *ast.GoStmt, *ast.DeferStmt:
			report("a spawned statement")
			return false
		case *ast.IncDecStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil && !isInteger(t) {
				report("non-integer accumulation")
				return false
			}
			return true
		case *ast.AssignStmt:
			if ok, reason := assignCommutative(pass, n, keyObj, body); !ok {
				report(reason)
				return false
			}
			// Still scan the RHS for calls/appends.
			for _, r := range n.Rhs {
				ast.Inspect(r, inspect)
			}
			return false
		}
		return true
	}
	ast.Inspect(body, inspect)
	return why
}

// assignCommutative decides whether one assignment inside a map-range
// body is order-insensitive.
func assignCommutative(pass *Pass, as *ast.AssignStmt, keyObj types.Object, body *ast.BlockStmt) (bool, string) {
	switch as.Tok {
	case token.DEFINE:
		return true, "" // fresh locals carry no cross-iteration state
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		for _, l := range as.Lhs {
			if t := pass.TypesInfo.TypeOf(l); t == nil || !isInteger(t) {
				return false, "non-integer accumulation"
			}
		}
		return true, ""
	case token.ASSIGN:
		for i, l := range as.Lhs {
			if isBodyLocal(pass, l, body) {
				continue // writes to loop-body locals are invisible outside
			}
			if ix, ok := l.(*ast.IndexExpr); ok && keyObj != nil {
				if id, ok := ix.Index.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == keyObj {
					continue // m2[k] = v: one store per distinct key
				}
			}
			if i < len(as.Rhs) {
				if id, ok := as.Rhs[i].(*ast.Ident); ok && (id.Name == "true" || id.Name == "false") {
					continue // flag set: every writer writes the same value
				}
			}
			return false, "ordered state outside the loop"
		}
		return true, ""
	}
	return false, "compound assignment"
}

// isBodyLocal reports whether expr is an identifier declared inside
// the loop body.
func isBodyLocal(pass *Pass, expr ast.Expr, body *ast.BlockStmt) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && body.Pos() <= obj.Pos() && obj.Pos() < body.End()
}

// rangeVarObj resolves a range clause variable to its object.
func rangeVarObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

// calleeName names a call target when it is a plain identifier
// (builtins included); otherwise "".
func calleeName(pass *Pass, call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
