package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// DefaultDeterministicPackages lists the packages whose behavior must be
// a pure function of (scenario, seed): the simulation engine, the
// simulated network, both SUT families, the oracles, the harnesses, the
// campaign engine's hot paths and the slab allocator under all of them.
// Everything the forked==cold and checkpoint-replay guarantees rest on
// lives here.
var DefaultDeterministicPackages = []string{
	"avd/internal/sim",
	"avd/internal/simnet",
	"avd/internal/pbft",
	"avd/internal/raftsim",
	"avd/internal/oracle",
	"avd/internal/cluster",
	"avd/internal/core",
	"avd/internal/mac",
	"avd/internal/faultinject",
	"avd/internal/scenario",
	"avd/internal/graycode",
	"avd/internal/plugin",
	"avd/internal/campaign",
	"avd/internal/slab",
}

// wallClockFuncs are the time package entry points that read or wait on
// the host clock. Formatting/arithmetic helpers (ParseDuration,
// Duration.Round, ...) are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the math/rand package-level functions that consume
// the process-global, non-seeded source. Constructors (New, NewSource,
// NewZipf) build seeded generators and are the sanctioned alternative.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 additions.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "UintN": true, "Uint": true,
	"Uint32N": true, "Uint64N": true,
}

// NewNondet builds the nondeterminism analyzer for the given package
// import paths (DefaultDeterministicPackages when empty). Within those
// packages it flags:
//
//   - wall-clock reads and sleeps (time.Now, time.Since, time.Sleep, ...)
//   - uses of the global math/rand source (rand.Intn, ...; methods on a
//     seeded *rand.Rand are fine)
//   - goroutine spawns (the campaign worker pool is annotated; anything
//     else would race the single-goroutine simulation contract)
//   - range over a map whose loop body has effects observable in
//     iteration order: calls, sends, appends that are never sorted,
//     early exits, float accumulation
func NewNondet(pkgs ...string) *Analyzer {
	enforced := make(map[string]bool)
	if len(pkgs) == 0 {
		pkgs = DefaultDeterministicPackages
	}
	for _, p := range pkgs {
		enforced[p] = true
	}
	a := &Analyzer{
		Name: "nondet",
		Doc: "flags wall clocks, global math/rand, goroutine spawns and " +
			"order-sensitive map iteration in the deterministic packages",
	}
	a.Run = func(pass *Pass) {
		if !enforced[pass.Pkg.PkgPath] {
			return
		}
		for _, f := range pass.Pkg.Files {
			nd := &nondetWalk{pass: pass, info: pass.Pkg.TypesInfo}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Body != nil {
					nd.sorted = sortedSlices(fn.Body, nd.info)
					ast.Inspect(fn.Body, nd.visit)
				}
			}
		}
	}
	return a
}

type nondetWalk struct {
	pass *Pass
	info *types.Info
	// sorted holds the objects of slices the enclosing function passes to
	// sort/slices ordering functions: appending to them inside a map
	// range is the canonical collect-then-sort idiom and is allowed.
	sorted map[types.Object]bool
	// locals holds objects declared inside the map-range body under
	// analysis (plus the range key/value variables): they are fresh per
	// iteration, so assignments and appends to them cannot leak state
	// across iteration order.
	locals map[types.Object]bool
}

func (nd *nondetWalk) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		nd.checkCall(n)
	case *ast.GoStmt:
		nd.pass.Reportf(n.Pos(), "goroutine spawn in a deterministic package: simulation code runs single-goroutine; annotate audited worker pools with //avdlint:allow")
	case *ast.RangeStmt:
		if nd.isMapRange(n) {
			if detail, bad := nd.mapOrderEffect(n); bad {
				nd.pass.Reportf(n.Pos(), "map iteration with order-sensitive effects (%s): iterate a sorted key slice, or annotate with //avdlint:allow if provably order-neutral", detail)
			}
		}
	}
	return true
}

func (nd *nondetWalk) checkCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := nd.info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (rand.Rand.Intn, time.Time.Sub, ...) are fine
	}
	switch obj.Pkg().Path() {
	case "time":
		if wallClockFuncs[obj.Name()] {
			nd.pass.Reportf(call.Pos(), "wall clock in a deterministic package: time.%s breaks replay; use the sim engine's virtual clock", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[obj.Name()] {
			nd.pass.Reportf(call.Pos(), "global math/rand source: rand.%s is process-global and unseeded; draw from the engine's Rand()", obj.Name())
		}
	}
}

func (nd *nondetWalk) isMapRange(r *ast.RangeStmt) bool {
	t := nd.info.TypeOf(r.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// mapOrderEffect decides whether the loop body's effects depend on map
// iteration order. The allowed vocabulary is deliberately small — writes
// into maps, deletes, integer accumulation, pure locals, appends to
// slices the function later sorts — because everything else (calls,
// sends, unsorted appends, early exits) has bitten a distributed-systems
// reproduction exactly like this one before (see the PR 6 enterView bug,
// EXPERIMENTS.md).
func (nd *nondetWalk) mapOrderEffect(r *ast.RangeStmt) (string, bool) {
	nd.locals = make(map[types.Object]bool)
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if id, ok := e.(*ast.Ident); ok && e != nil {
			if obj := nd.info.ObjectOf(id); obj != nil {
				nd.locals[obj] = true
			}
		}
	}
	ast.Inspect(r.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := nd.info.Defs[id]; obj != nil {
							nd.locals[obj] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				if obj := nd.info.Defs[id]; obj != nil {
					nd.locals[obj] = true
				}
			}
		}
		return true
	})
	defer func() { nd.locals = nil }()
	return nd.blockEffect(r.Body.List)
}

// localRooted reports whether the expression writes through a variable
// that is fresh per iteration: the range key/value or a body-declared
// local, possibly behind selectors/indexes (writing a field of the
// per-element object each iteration owns is order-neutral).
func (nd *nondetWalk) localRooted(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			obj := nd.info.ObjectOf(x)
			return obj != nil && nd.locals[obj]
		default:
			return false
		}
	}
}

func (nd *nondetWalk) blockEffect(stmts []ast.Stmt) (string, bool) {
	for _, s := range stmts {
		if detail, bad := nd.stmtEffect(s); bad {
			return detail, true
		}
	}
	return "", false
}

func (nd *nondetWalk) stmtEffect(s ast.Stmt) (string, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return nd.assignEffect(s)
	case *ast.IncDecStmt:
		return nd.lhsEffect(s.X, true)
	case *ast.ExprStmt:
		return nd.callStmtEffect(s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			if d, bad := nd.stmtEffect(s.Init); bad {
				return d, true
			}
		}
		if !nd.pureExpr(s.Cond) {
			return "call inside the loop condition", true
		}
		if d, bad := nd.blockEffect(s.Body.List); bad {
			return d, true
		}
		if s.Else != nil {
			return nd.stmtEffect(s.Else)
		}
		return "", false
	case *ast.BlockStmt:
		return nd.blockEffect(s.List)
	case *ast.RangeStmt:
		// Nested iteration: same rules apply to the inner body. (A nested
		// map range is also visited on its own by the outer walk.)
		return nd.blockEffect(s.Body.List)
	case *ast.ForStmt:
		return nd.blockEffect(s.Body.List)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR && gd.Tok != token.CONST {
			return "declaration", true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				if !nd.pureExpr(v) {
					return "call in a declaration initializer", true
				}
			}
		}
		return "", false
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return "", false
		}
		return "break out of map iteration (stops at an arbitrary element)", true
	case *ast.ReturnStmt:
		return "return from inside map iteration (picks an arbitrary element)", true
	case *ast.SendStmt:
		return "channel send in map-iteration order", true
	case *ast.SwitchStmt:
		if s.Tag != nil && !nd.pureExpr(s.Tag) {
			return "call in a switch tag", true
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				if !nd.pureExpr(e) {
					return "call in a case expression", true
				}
			}
			if d, bad := nd.blockEffect(cc.Body); bad {
				return d, true
			}
		}
		return "", false
	case *ast.EmptyStmt:
		return "", false
	default:
		return fmt.Sprintf("%T statement", s), true
	}
}

// assignEffect classifies an assignment inside a map range.
func (nd *nondetWalk) assignEffect(s *ast.AssignStmt) (string, bool) {
	// Appends first: `x = append(x, ...)` is allowed when the function
	// later sorts x.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && nd.isBuiltin(call, "append") {
			for _, arg := range call.Args[1:] {
				if !nd.pureExpr(arg) {
					return "call in an append argument", true
				}
			}
			if obj := nd.objOf(s.Lhs[0]); obj != nil && (nd.sorted[obj] || nd.locals[obj]) {
				return "", false
			}
			return "append in map-iteration order without a later sort", true
		}
	}
	for _, rhs := range s.Rhs {
		if !nd.pureExpr(rhs) {
			return "call on the right-hand side of an assignment", true
		}
	}
	if s.Tok == token.DEFINE {
		return "", false // fresh locals are scoped to the iteration
	}
	for _, lhs := range s.Lhs {
		accum := s.Tok != token.ASSIGN
		if d, bad := nd.lhsEffect(lhs, accum); bad {
			return d, true
		}
		if s.Tok == token.ASSIGN {
			switch l := lhs.(type) {
			case *ast.IndexExpr:
				// Writes into maps commute across iteration order (each
				// key is written from its own iteration); writes into
				// slices at a map-derived index do too.
				continue
			case *ast.Ident:
				if l.Name == "_" || nd.localRooted(l) {
					continue
				}
				return "plain assignment to " + l.Name + " (last-written value depends on iteration order)", true
			default:
				if nd.localRooted(lhs) {
					// Writing a field of the per-element object this
					// iteration owns (for _, p := range m { p.f = v }).
					continue
				}
				return "plain assignment in map-iteration order", true
			}
		}
	}
	return "", false
}

// lhsEffect vets an accumulation target: integer-family accumulation
// (+=, |=, counters) commutes, floating-point accumulation does not.
func (nd *nondetWalk) lhsEffect(lhs ast.Expr, accum bool) (string, bool) {
	if !accum {
		return "", false
	}
	t := nd.info.TypeOf(lhs)
	if t == nil {
		return "", false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
		return "floating-point accumulation in map-iteration order (FP addition is not associative)", true
	}
	return "", false
}

// callStmtEffect vets a bare call statement: delete(m, k) commutes,
// everything else is assumed to have order-observable effects.
func (nd *nondetWalk) callStmtEffect(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		if !nd.pureExpr(e) {
			return "call in map-iteration order", true
		}
		return "", false
	}
	if nd.isBuiltin(call, "delete") || nd.isBuiltin(call, "clear") {
		return "", false
	}
	return "call in map-iteration order (sends, scheduling and pool churn all observe it)", true
}

// pureExpr reports whether evaluating e cannot have observable effects:
// no calls except len/cap/min/max and type conversions.
func (nd *nondetWalk) pureExpr(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return pure
		}
		if nd.isBuiltin(call, "len") || nd.isBuiltin(call, "cap") ||
			nd.isBuiltin(call, "min") || nd.isBuiltin(call, "max") || nd.isConversion(call) {
			return pure
		}
		pure = false
		return false
	})
	return pure
}

func (nd *nondetWalk) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = nd.info.Uses[id].(*types.Builtin)
	return ok
}

func (nd *nondetWalk) isConversion(call *ast.CallExpr) bool {
	tv, ok := nd.info.Types[call.Fun]
	return ok && tv.IsType()
}

func (nd *nondetWalk) objOf(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return nd.info.ObjectOf(e)
	case *ast.SelectorExpr:
		return nd.info.ObjectOf(e.Sel)
	}
	return nil
}

// sortedSlices collects the objects of slices the function hands to a
// sorting routine (sort.Slice, sort.Strings, slices.Sort*, ...): they
// are collect-then-sort accumulators, safe to append to in map order.
func sortedSlices(body *ast.BlockStmt, info *types.Info) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		var obj types.Object
		switch a := call.Args[0].(type) {
		case *ast.Ident:
			obj = info.ObjectOf(a)
		case *ast.SelectorExpr:
			obj = info.ObjectOf(a.Sel)
		}
		if obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}
