package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// methodPair names the two methods whose bodies must jointly cover every
// mutable field of their receiver type.
type methodPair struct {
	capture, restore string
	// union relaxes the rule to "referenced in either method": the
	// Crash/Restart durable split clears volatile state in Restart and
	// durable state in Crash, so a field legitimately appears in only one.
	union bool
}

var snapshotPairs = []methodPair{
	{capture: "Snapshot", restore: "Restore"},
	{capture: "Crash", restore: "Restart", union: true},
}

// NewSnapCover builds the snapshot-completeness analyzer. For every
// struct type that has a Snapshot/Restore (or Crash/Restart) method pair,
// each field must be
//
//   - referenced in both methods (transitively through same-package
//     helpers), so forks roll it back — or referenced in either for the
//     Crash/Restart durable split; or
//   - annotated //avdlint:derived or //avdlint:ephemeral with a reason
//     (rebuilt from other state, or scoped to a single run); or
//   - never mutated outside the type's constructors, i.e. effectively
//     immutable configuration.
//
// Adding a mutable field without threading it through the pair is how
// forked!=cold heisenbugs are born; this turns them into build failures.
func NewSnapCover() *Analyzer {
	a := &Analyzer{
		Name: "snapcover",
		Doc: "every mutable field of a type with Snapshot/Restore (or " +
			"Crash/Restart) must be covered by the pair or annotated derived/ephemeral",
	}
	a.Run = runSnapCover
	return a
}

func runSnapCover(pass *Pass) {
	pkg := pass.Pkg
	sc := &snapCover{
		pass:    pass,
		info:    pkg.TypesInfo,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		fields:  make(map[*types.Var]*ast.Field),
		mutated: make(map[*types.Var]bool),
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if obj, ok := sc.info.Defs[d.Name].(*types.Func); ok {
					sc.decls[obj] = d
				}
			case *ast.GenDecl:
				sc.collectFieldDecls(d)
			}
		}
	}
	sc.collectMutations()
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := sc.info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				if _, ok := named.Underlying().(*types.Struct); !ok {
					continue
				}
				sc.checkType(named)
			}
		}
	}
}

type snapCover struct {
	pass    *Pass
	info    *types.Info
	decls   map[*types.Func]*ast.FuncDecl
	fields  map[*types.Var]*ast.Field
	mutated map[*types.Var]bool
}

// collectFieldDecls maps field objects to their AST for annotation and
// position lookup.
func (sc *snapCover) collectFieldDecls(d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			for _, name := range field.Names {
				if obj, ok := sc.info.Defs[name].(*types.Var); ok {
					sc.fields[obj] = field
				}
			}
		}
	}
}

// collectMutations records every struct field the package mutates
// outside constructor functions: direct assignment, op-assignment,
// inc/dec, index/star writes through the field, clear(), taking the
// field's address, and pointer-receiver method calls on the field value.
func (sc *snapCover) collectMutations() {
	for fn, decl := range sc.decls {
		if decl.Body == nil || sc.isConstructor(fn, decl) {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					sc.markWrite(lhs)
				}
			case *ast.IncDecStmt:
				sc.markWrite(n.X)
			case *ast.UnaryExpr:
				if n.Op.String() == "&" {
					sc.markField(n.X)
				}
			case *ast.CallExpr:
				sc.markCallMutations(n)
			}
			return true
		})
	}
}

// markWrite records the field (if any) behind an assignment target,
// looking through index and star expressions: `x.f[i] = v` and `*x.f = v`
// mutate f's contents.
func (sc *snapCover) markWrite(lhs ast.Expr) {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		case *ast.ParenExpr:
			lhs = e.X
			continue
		}
		break
	}
	sc.markField(lhs)
}

func (sc *snapCover) markField(e ast.Expr) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if obj, ok := sc.info.Uses[sel.Sel].(*types.Var); ok && obj.IsField() {
		sc.mutated[obj] = true
	}
}

// markCallMutations handles clear(x.f), append targets via assignment
// (already covered), and pointer-receiver method calls on a field value
// (x.f.rewind() mutates f when rewind has a pointer receiver).
func (sc *snapCover) markCallMutations(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := sc.info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "clear" || id.Name == "copy") {
			if len(call.Args) > 0 {
				sc.markWrite(call.Args[0])
			}
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := sc.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
		return
	}
	// Method with pointer receiver invoked on a field: the field's value
	// is addressed and may be mutated. (Fields that are themselves
	// pointers point at shared state; mutating through them does not
	// change the field, so only value-typed fields count.)
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := sc.info.Uses[inner.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return
	}
	if _, fieldIsPtr := obj.Type().Underlying().(*types.Pointer); !fieldIsPtr {
		sc.mutated[obj] = true
	}
}

// isConstructor reports whether fn builds the analyzed package's values:
// a package-level function (not method) whose results include a named
// struct type of this package. Mutations inside constructors are
// initialization, not runtime state changes.
func (sc *snapCover) isConstructor(fn *types.Func, decl *ast.FuncDecl) bool {
	if decl.Recv != nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results() == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == sc.pass.Pkg.Types {
			return true
		}
	}
	return false
}

// checkType verifies one named struct type against every method pair it
// implements.
func (sc *snapCover) checkType(named *types.Named) {
	st := named.Underlying().(*types.Struct)
	for _, pair := range snapshotPairs {
		capFn := lookupMethod(named, pair.capture)
		resFn := lookupMethod(named, pair.restore)
		if capFn == nil || resFn == nil {
			continue
		}
		capRefs := sc.fieldRefs(capFn, named)
		resRefs := sc.fieldRefs(resFn, named)
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			inCap, inRes := capRefs[field], resRefs[field]
			covered := inCap && inRes
			if pair.union {
				covered = inCap || inRes
			}
			if covered {
				continue
			}
			astField, pos := sc.fields[field], field.Pos()
			if astField != nil {
				if _, ok := sc.pass.Prog.fieldDirective(sc.pass.Prog.Fset, astField); ok {
					continue
				}
			}
			// Fields the package never mutates outside constructors are
			// configuration: an incidental reference through a helper on
			// one side of the pair is not a contract violation.
			if !sc.mutated[field] {
				continue
			}
			switch {
			case inCap && !inRes:
				sc.pass.Reportf(pos, "%s.%s is captured by %s but never restored by %s: forks will keep the forked run's value",
					named.Obj().Name(), field.Name(), pair.capture, pair.restore)
			case !inCap && inRes:
				sc.pass.Reportf(pos, "%s.%s is restored by %s but never captured by %s: restores will write stale or zero state",
					named.Obj().Name(), field.Name(), pair.restore, pair.capture)
			default:
				sc.pass.Reportf(pos, "%s.%s is mutated at runtime but covered by neither %s nor %s: forked runs will leak it across tests (annotate //avdlint:derived or //avdlint:ephemeral with a reason if rebuilding is intended)",
					named.Obj().Name(), field.Name(), pair.capture, pair.restore)
			}
		}
	}
}

// fieldRefs returns the fields of recv referenced by the method body and
// every same-package function or method it (transitively) calls.
func (sc *snapCover) fieldRefs(root *types.Func, recv *types.Named) map[*types.Var]bool {
	refs := make(map[*types.Var]bool)
	seen := make(map[*types.Func]bool)
	var scan func(fn *types.Func)
	scan = func(fn *types.Func) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		decl := sc.decls[fn]
		if decl == nil || decl.Body == nil {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if obj, ok := sc.info.Uses[n.Sel].(*types.Var); ok && obj.IsField() && fieldOwner(obj, recv) {
					refs[obj] = true
				}
			case *ast.CallExpr:
				var callee *types.Func
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					callee, _ = sc.info.Uses[fun].(*types.Func)
				case *ast.SelectorExpr:
					callee, _ = sc.info.Uses[fun.Sel].(*types.Func)
				}
				if callee != nil && callee.Pkg() == sc.pass.Pkg.Types {
					scan(callee)
				}
			}
			return true
		})
	}
	scan(root)
	return refs
}

// fieldOwner reports whether field belongs to the named struct type.
func fieldOwner(field *types.Var, named *types.Named) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == field {
			return true
		}
	}
	return false
}

// lookupMethod finds a method by name on the named type (pointer or
// value receiver).
func lookupMethod(named *types.Named, name string) *types.Func {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// describePairs is used by avdlint -help output.
func describePairs() string {
	var parts []string
	for _, p := range snapshotPairs {
		parts = append(parts, fmt.Sprintf("%s/%s", p.capture, p.restore))
	}
	return strings.Join(parts, ", ")
}
