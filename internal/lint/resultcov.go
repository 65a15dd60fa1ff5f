package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// A CodecSpec binds a struct to the sinks every one of its fields must
// flow through.
type CodecSpec struct {
	// Struct is "<pkg-path>.<TypeName>".
	Struct string
	Sinks  []CodecSplitSink
}

// CodecSplitSink groups alternative functions for one sink: the sink is
// satisfied if the field is referenced by any of them (encode/decode
// pairs list both directions separately, so both are enforced).
type CodecSplitSink struct {
	Name  string
	Funcs []string
}

// DefaultResultSpec enforces the PR 3/PR 6 lesson: a core.Result field
// that does not thread through the CSV writer, the human summary, and
// both checkpoint directions is a field campaigns silently lose on one
// of those paths.
var DefaultResultSpec = CodecSpec{
	Struct: "avd/internal/core.Result",
	Sinks: []CodecSplitSink{
		{Name: "csv writer", Funcs: []string{"avd/internal/trace.WriteCampaignCSV"}},
		{Name: "campaign summary", Funcs: []string{"avd/internal/trace.SummarizeCampaign"}},
		{Name: "checkpoint encode", Funcs: []string{"avd/internal/core.Checkpoint.Encode"}},
		{Name: "checkpoint decode", Funcs: []string{"avd/internal/core.DecodeCheckpoint"}},
	},
}

// NewResultCov builds the result/codec coverage analyzer for the given
// spec (DefaultResultSpec when zero). It is a whole-program analyzer:
// the struct and its sinks live in different packages.
func NewResultCov(spec CodecSpec) *Analyzer {
	if spec.Struct == "" {
		spec = DefaultResultSpec
	}
	a := &Analyzer{
		Name: "resultcov",
		Doc: "every field of " + spec.Struct + " must be referenced by each " +
			"serialization sink (CSV, summary, checkpoint encode/decode)",
	}
	a.RunProgram = func(prog *Program, rep *Reporter) {
		runResultCov(prog, rep, a, spec)
	}
	return a
}

func runResultCov(prog *Program, rep *Reporter, a *Analyzer, spec CodecSpec) {
	structPkgPath, typeName, ok := splitQualified(spec.Struct)
	if !ok {
		return
	}
	pkg := prog.Package(structPkgPath)
	if pkg == nil {
		return // struct package not loaded: nothing to check
	}
	obj, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		rep.reportf(a, prog.Fset, pkg.Files[0].Pos(), "codec spec names unknown type %s", spec.Struct)
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}

	for _, sink := range spec.Sinks {
		refs, found := sinkFieldRefs(prog, sink.Funcs, named)
		if !found {
			rep.reportf(a, prog.Fset, pkg.Files[0].Pos(),
				"codec sink %q: none of its functions (%s) exist", sink.Name, strings.Join(sink.Funcs, ", "))
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if refs[field] {
				continue
			}
			if fieldAnnotated(prog, pkg, field) {
				continue
			}
			rep.reportf(a, prog.Fset, field.Pos(),
				"%s.%s never reaches the %s: campaigns drop the field on that path (thread it through, or annotate the field with a reason)",
				typeName, field.Name(), sink.Name)
		}
	}
}

// fieldAnnotated reports an avdlint directive on the struct field's
// declaration.
func fieldAnnotated(prog *Program, pkg *Package, field *types.Var) bool {
	for _, f := range pkg.Files {
		var found bool
		ast.Inspect(f, func(n ast.Node) bool {
			fieldDecl, ok := n.(*ast.Field)
			if !ok || found {
				return !found
			}
			for _, name := range fieldDecl.Names {
				if pkg.TypesInfo.Defs[name] == field {
					_, found = prog.fieldDirective(prog.Fset, fieldDecl)
					if !found {
						return false // located but unannotated: stop looking
					}
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

// sinkFieldRefs unions the struct-field references of every listed sink
// function, each expanded transitively within its own package.
func sinkFieldRefs(prog *Program, funcs []string, named *types.Named) (map[*types.Var]bool, bool) {
	refs := make(map[*types.Var]bool)
	any := false
	for _, qualified := range funcs {
		pkgPath, name, ok := splitQualified(qualified)
		if !ok {
			continue
		}
		pkg := prog.Package(pkgPath)
		if pkg == nil {
			continue
		}
		fn := lookupQualifiedFunc(pkg, name)
		if fn == nil {
			continue
		}
		any = true
		collectFieldRefs(pkg, fn, named, refs)
	}
	return refs, any
}

// splitQualified splits "path/to/pkg.Name" or "path/to/pkg.Type.Method"
// into package path and the in-package name.
func splitQualified(q string) (pkgPath, name string, ok bool) {
	slash := strings.LastIndex(q, "/")
	dot := strings.Index(q[slash+1:], ".")
	if dot < 0 {
		return "", "", false
	}
	dot += slash + 1
	return q[:dot], q[dot+1:], true
}

// lookupQualifiedFunc resolves "Func" or "Type.Method" in a package.
func lookupQualifiedFunc(pkg *Package, name string) *types.Func {
	if typeName, method, ok := strings.Cut(name, "."); ok {
		tn, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			return nil
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			return nil
		}
		return lookupMethod(named, method)
	}
	fn, _ := pkg.Types.Scope().Lookup(name).(*types.Func)
	return fn
}

// collectFieldRefs walks fn and its same-package callees recording which
// fields of the named struct they touch.
func collectFieldRefs(pkg *Package, root *types.Func, named *types.Named, refs map[*types.Var]bool) {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}
	seen := make(map[*types.Func]bool)
	var scan func(fn *types.Func)
	scan = func(fn *types.Func) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		decl := decls[fn]
		if decl == nil || decl.Body == nil {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if obj, ok := pkg.TypesInfo.Uses[n.Sel].(*types.Var); ok && obj.IsField() && fieldOwner(obj, named) {
					refs[obj] = true
				}
			case *ast.CallExpr:
				var callee *types.Func
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					callee, _ = pkg.TypesInfo.Uses[fun].(*types.Func)
				case *ast.SelectorExpr:
					callee, _ = pkg.TypesInfo.Uses[fun.Sel].(*types.Func)
				}
				if callee != nil && callee.Pkg() == pkg.Types {
					scan(callee)
				}
			}
			return true
		})
	}
	scan(root)
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
