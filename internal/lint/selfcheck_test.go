package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

var repo struct {
	once sync.Once
	prog *Program
	err  error
}

// loadRepo type-checks this module once for every test that needs it.
func loadRepo(t *testing.T) *Program {
	t.Helper()
	repo.once.Do(func() { repo.prog, repo.err = Load("../..", "./...") })
	if repo.err != nil {
		t.Fatalf("loading module: %v", repo.err)
	}
	return repo.prog
}

// TestRepoSelfCheck runs the full avdlint suite over this repository and
// requires zero unannotated findings — the same gate CI applies via
// cmd/avdlint. A new wall-clock read, unsorted map iteration with
// observable effects, uncovered snapshot field or dropped Result field
// fails this test until it is either fixed or suppressed with a reasoned
// //avdlint directive.
func TestRepoSelfCheck(t *testing.T) {
	rep := RunAnalyzers(loadRepo(t), NewNondet(), NewSnapCover(), NewResultCov(CodecSpec{}))
	for _, d := range rep.Unsuppressed() {
		t.Errorf("%s", d.String())
	}
	if t.Failed() {
		t.Log("fix the finding or annotate it: //avdlint:allow <reason> on the line, //avdlint:derived|ephemeral <reason> on the field (see DESIGN.md §11)")
	}
}

// TestDesignIdentifiersExist: every `pkg.Ident` or `pkg.Type.Member` code
// span of DESIGN.md, pkg a package of this module and Ident exported,
// names something in the tree — a declaration, a field or method of the
// type (promoted ones count: `cluster.Runner.Baseline` is core.Harness's),
// or a test function — and every bare `TestX`, `FuzzX` or `BenchmarkX`
// span (up to a `/` naming a subtest) names a test function in some
// _test.go file of the module. A document that outlives the code it
// describes fails here (ROADMAP item 9).
func TestDesignIdentifiersExist(t *testing.T) {
	prog := loadRepo(t)
	doc, err := os.ReadFile(filepath.Join(prog.Root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string][]*Package)
	for _, p := range prog.Pkgs {
		byName[p.Types.Name()] = append(byName[p.Types.Name()], p)
	}
	tests := make(map[string]bool)
	for _, dir := range testDirs(t, prog.Root) {
		for _, name := range testFuncs(t, dir) {
			tests[name] = true
		}
	}
	fences := regexp.MustCompile("(?s)```.*?```")
	spans := regexp.MustCompile("`([^`]+)`")
	ref := regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	bare := regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)\w*`)
	checked, checkedTests := 0, 0
	for _, span := range spans.FindAllStringSubmatch(fences.ReplaceAllString(string(doc), ""), -1) {
		if name := bare.FindString(span[1]); name != "" {
			checkedTests++
			if !tests[name] {
				t.Errorf("DESIGN.md names `%s`, which no _test.go file declares", name)
			}
			continue
		}
		m := ref.FindStringSubmatch(span[1])
		if m == nil || len(byName[m[1]]) == 0 {
			continue // not a reference, or to the standard library
		}
		checked++
		if !slices.ContainsFunc(byName[m[1]], func(p *Package) bool { return declares(p, m[2], m[3]) }) {
			t.Errorf("DESIGN.md names `%s`, which is not in the tree", m[0])
		}
	}
	if checked < 80 || checkedTests < 20 {
		t.Errorf("only %d references and %d test names checked: the scan no longer finds them", checked, checkedTests)
	}
}

// declares reports whether p declares name, or a type name with a field
// or method member.
func declares(p *Package, name, member string) bool {
	obj := p.Types.Scope().Lookup(name)
	if obj == nil {
		return member == "" && declaresTest(p.Dir, name)
	}
	if member == "" {
		return true
	}
	if _, ok := obj.(*types.TypeName); !ok {
		return false
	}
	found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p.Types, member)
	return found != nil
}

// declaresTest reports whether a test file in dir declares func name.
func declaresTest(dir, name string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	return slices.ContainsFunc(files, func(f string) bool {
		src, err := os.ReadFile(f)
		return err == nil && strings.Contains(string(src), "\nfunc "+name+"(")
	})
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)

// testFuncs lists the test, fuzz, benchmark and example functions the
// _test.go files of dir declare.
func testFuncs(tb testing.TB, dir string) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		tb.Fatal(err)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// testDirs lists root and every directory under it that holds Go files,
// the way `go test root/...` walks it.
func testDirs(tb testing.TB, root string) []string {
	tb.Helper()
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if gos, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gos) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return dirs
}
