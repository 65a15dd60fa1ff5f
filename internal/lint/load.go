// Package loading for avdlint.
//
// The canonical way to load type-checked packages for analysis is
// golang.org/x/tools/go/packages; this container has no module proxy, so
// avdlint carries its own minimal loader instead. It understands exactly
// what this repository needs — a single module, no vendoring, no cgo, no
// build tags — and type-checks in dependency order with a chain
// importer: module-internal imports resolve to the packages just
// checked, everything else falls through to go/importer's source
// importer (which compiles the stdlib from $GOROOT/src, so the loader
// works fully offline).
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one type-checked package of the loaded module.
type Package struct {
	// PkgPath is the import path (module path + relative directory).
	PkgPath string
	// Dir is the absolute directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and TypesInfo carry the go/types results.
	Types     *types.Package
	TypesInfo *types.Info
}

// A Program is a loaded module: every package in dependency order plus
// the suppression directives found in their sources.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Root       string
	Pkgs       []*Package

	byPath       map[string]*Package
	suppressions []suppression
}

// Package returns the loaded package with the given import path, nil
// when the path was not part of the load.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// Load parses and type-checks the module rooted at root. Patterns narrow
// the load to packages whose import path matches one of them exactly or,
// for a pattern ending in "/...", by prefix; no patterns loads every
// package. Test files are skipped: the contracts avdlint enforces are
// about shipped simulation code, and tests are where nondeterminism
// (wall-clock deadlines, t.TempDir) is legitimate.
func Load(root string, patterns ...string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:       token.NewFileSet(),
		ModulePath: modPath,
		Root:       root,
		byPath:     make(map[string]*Package),
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	// Parse everything first: the import graph decides check order.
	byPath := make(map[string]*parsedPackage)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		files, imports, err := parseDir(prog.Fset, dir, modPath)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		byPath[pkgPath] = &parsedPackage{pkgPath: pkgPath, dir: dir, files: files, imports: imports}
	}

	// Topological order over module-internal imports.
	order, err := topoSort(byPath)
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(prog.Fset, "source", nil)
	imp := &chainImporter{local: make(map[string]*types.Package), std: std}
	want := matcher(modPath, patterns)
	for _, p := range order {
		conf := types.Config{Importer: imp}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		tpkg, err := conf.Check(p.pkgPath, prog.Fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", p.pkgPath, err)
		}
		imp.local[p.pkgPath] = tpkg
		if !want(p.pkgPath) {
			continue
		}
		pkg := &Package{
			PkgPath:   p.pkgPath,
			Dir:       p.dir,
			Files:     p.files,
			Types:     tpkg,
			TypesInfo: info,
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.byPath[p.pkgPath] = pkg
		for _, f := range p.files {
			prog.suppressions = append(prog.suppressions, parseSuppressions(prog.Fset, f)...)
		}
	}
	return prog, nil
}

// matcher compiles load patterns; relative patterns ("./...", "./cmd/x")
// are interpreted against the module path.
func matcher(modPath string, patterns []string) func(string) bool {
	if len(patterns) == 0 {
		return func(string) bool { return true }
	}
	var exact, prefixes []string
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			prefixes = append(prefixes, modPath)
		case strings.HasPrefix(pat, "./"):
			pat = modPath + "/" + strings.TrimPrefix(pat, "./")
			fallthrough
		default:
			if suffix, ok := strings.CutSuffix(pat, "/..."); ok {
				prefixes = append(prefixes, suffix)
			} else {
				exact = append(exact, pat)
			}
		}
	}
	return func(path string) bool {
		for _, e := range exact {
			if path == e {
				return true
			}
		}
		for _, p := range prefixes {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (avdlint must run from a module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			if p, err := strconv.Unquote(rest); err == nil {
				return p, nil
			}
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// packageDirs walks the module for directories holding non-test Go
// sources, skipping testdata, hidden directories and nested fixtures.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// parseDir parses a directory's non-test sources that the default build
// context selects (so a `race`-tagged file and its `!race` twin do not
// both load) and collects their module-internal imports.
func parseDir(fset *token.FileSet, dir, modPath string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	importSet := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == modPath || strings.HasPrefix(path, modPath+"/") {
				importSet[path] = true
			}
		}
	}
	imports := make([]string, 0, len(importSet))
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	return files, imports, nil
}

// parsedPackage is one directory's parse result, pre-type-check.
type parsedPackage struct {
	pkgPath string
	dir     string
	files   []*ast.File
	imports []string
}

// topoSort orders packages so every module-internal import is checked
// before its importer.
func topoSort(byPath map[string]*parsedPackage) ([]*parsedPackage, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(byPath))
	var order []*parsedPackage
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := byPath[path]
		if !ok {
			return nil // import of a module path outside the walk (never happens today)
		}
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = visiting
		for _, imp := range p.imports {
			if err := visit(imp); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, p)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// chainImporter resolves module-internal paths from the packages checked
// so far and delegates everything else to the stdlib source importer.
type chainImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := c.local[path]; ok {
		return pkg, nil
	}
	return c.std.Import(path)
}
