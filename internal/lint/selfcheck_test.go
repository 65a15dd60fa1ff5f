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
// or a test function. A document that outlives the code it describes
// fails here (ROADMAP item 9).
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
	fences := regexp.MustCompile("(?s)```.*?```")
	spans := regexp.MustCompile("`([^`]+)`")
	ref := regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	checked := 0
	for _, span := range spans.FindAllStringSubmatch(fences.ReplaceAllString(string(doc), ""), -1) {
		m := ref.FindStringSubmatch(span[1])
		if m == nil || len(byName[m[1]]) == 0 {
			continue // not a reference, or to the standard library
		}
		checked++
		if !slices.ContainsFunc(byName[m[1]], func(p *Package) bool { return declares(p, m[2], m[3]) }) {
			t.Errorf("DESIGN.md names `%s`, which is not in the tree", m[0])
		}
	}
	if checked < 80 {
		t.Errorf("only %d references checked: the scan no longer finds them", checked)
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
