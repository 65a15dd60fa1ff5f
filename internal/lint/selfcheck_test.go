package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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

// maxWaivers is how many findings //avdlint:allow comments cover in this
// repository: three goroutine pools and a diagnostics hook, all in core.
// A new waiver removes another one, or raises this figure with its reason
// in the same change.
const maxWaivers = 4

// TestRepoSelfCheck runs the full avdlint suite over this repository and
// requires zero unannotated findings — the same gate CI applies via
// cmd/avdlint. A new wall-clock read, unsorted map iteration with
// observable effects, uncovered snapshot field or dropped Result field
// fails this test until it is either fixed or suppressed with a reasoned
// //avdlint directive; and a suppression past maxWaivers fails it too,
// listing every one.
func TestRepoSelfCheck(t *testing.T) {
	rep := RunAnalyzers(loadRepo(t), NewNondet(), NewSnapCover(), NewResultCov(CodecSpec{}))
	for _, d := range rep.Unsuppressed() {
		t.Errorf("%s", d.String())
	}
	if t.Failed() {
		t.Log("fix the finding or annotate it: //avdlint:allow <reason> on the line, //avdlint:derived|ephemeral <reason> on the field (see DESIGN.md §9)")
	}
	var waived []Diagnostic
	for _, d := range rep.Diagnostics() {
		if d.Suppressed {
			waived = append(waived, d)
		}
	}
	if len(waived) > maxWaivers {
		t.Errorf("%d findings are waived, over the budget of %d:", len(waived), maxWaivers)
		for _, d := range waived {
			t.Log(d.String())
		}
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

// TestDocBudgets keeps the design documents short enough to read and
// their cross-references real. DESIGN.md stays under 45 KiB with no
// heading naming a PR; EXPERIMENTS.md stays under 100 KiB, opens with an
// "## Index" section and keeps every section after it under 6 KiB; each
// CHANGES.md entry from PR 31 on (a line starting `- PR N` or
// `- **PR N`) stays under 250 words. Every DESIGN.md section that a Go
// file, the CI workflow or the verify skill cites by its § number is a
// heading of DESIGN.md, every quoted EXPERIMENTS.md section title is a
// heading of EXPERIMENTS.md, and every package of the module starts a
// line of §1's layering block.
func TestDocBudgets(t *testing.T) {
	prog := loadRepo(t)
	read := func(name string) string {
		src, err := os.ReadFile(filepath.Join(prog.Root, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	design, experiments := read("DESIGN.md"), read("EXPERIMENTS.md")

	if n := len(design); n >= 45<<10 {
		t.Errorf("DESIGN.md is %d bytes, over its budget of %d", n, 45<<10)
	}
	sections := make(map[string]bool)
	namesPR, numbered := regexp.MustCompile(`PR [0-9]`), regexp.MustCompile(`^## (§\w+) `)
	for _, h := range regexp.MustCompile(`(?m)^#+ .*$`).FindAllString(design, -1) {
		if namesPR.MatchString(h) {
			t.Errorf("DESIGN.md heading %q names a PR", h)
		}
		if m := numbered.FindStringSubmatch(h); m != nil {
			sections[m[1]] = true
		}
	}

	if n := len(experiments); n >= 100<<10 {
		t.Errorf("EXPERIMENTS.md is %d bytes, over its budget of %d", n, 100<<10)
	}
	titles := make(map[string]bool)
	parts := regexp.MustCompile(`(?m)^## `).Split(experiments, -1)
	if len(parts) < 2 || !strings.HasPrefix(parts[1], "Index\n") {
		t.Errorf("EXPERIMENTS.md does not open with an ## Index section")
	}
	for i, part := range parts[1:] {
		title, _, _ := strings.Cut(part, "\n")
		titles[title] = true
		if n := len(part) + len("## "); i > 0 && n >= 6<<10 {
			t.Errorf("EXPERIMENTS.md section %q is %d bytes, over its budget of %d", title, n, 6<<10)
		}
	}

	entry := regexp.MustCompile(`^- (?:\*\*)?PR (\d+)`)
	for _, line := range strings.Split(read("CHANGES.md"), "\n") {
		m := entry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if pr, _ := strconv.Atoi(m[1]); pr < 31 {
			continue
		}
		if n := len(strings.Fields(strings.TrimPrefix(line, "- "))); n >= 250 {
			t.Errorf("CHANGES.md entry for PR %s is %d words, over its budget of 250", m[1], n)
		}
	}

	// Citations may wrap across comment lines; join them first.
	wrap := regexp.MustCompile(`\n[ \t]*(?://|#)?[ \t]*`)
	designRef := regexp.MustCompile(`DESIGN\.md,? (§\w+(?:(?:, | and )§\w+)*)`)
	section := regexp.MustCompile(`§\w+`)
	experimentsRef := regexp.MustCompile(`EXPERIMENTS\.md,? "([^"]+)"`)
	citing := []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
	for _, dir := range testDirs(t, prog.Root) {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, f := range files {
			rel, _ := filepath.Rel(prog.Root, f)
			citing = append(citing, rel)
		}
	}
	cited := 0
	for _, name := range citing {
		src := wrap.ReplaceAllString(read(name), " ")
		for _, m := range designRef.FindAllStringSubmatch(src, -1) {
			for _, s := range section.FindAllString(m[1], -1) {
				cited++
				if !sections[s] {
					t.Errorf("%s cites DESIGN.md %s, which has no such section", name, s)
				}
			}
		}
		for _, m := range experimentsRef.FindAllStringSubmatch(src, -1) {
			if !titles[m[1]] {
				t.Errorf("%s cites EXPERIMENTS.md %q, which has no such section", name, m[1])
			}
		}
	}
	if cited < 20 {
		t.Errorf("only %d DESIGN.md citations found: the scan no longer finds them", cited)
	}

	layering := regexp.MustCompile("(?s)\n## §1 .*?```\n(.*?)```").FindStringSubmatch(design)
	if layering == nil {
		t.Fatal("DESIGN.md §1 has no layering block")
	}
	listed := make(map[string]bool)
	for _, line := range strings.Split(layering[1], "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(line, " ") {
			listed[strings.TrimSuffix(f[0], "/")] = true
		}
	}
	for _, p := range prog.Pkgs {
		rel, _ := filepath.Rel(prog.Root, p.Dir)
		if nestedModule(prog.Root, p.Dir) {
			continue
		}
		if rel == "." {
			rel = prog.ModulePath
		}
		if !listed[filepath.ToSlash(rel)] {
			t.Errorf("package %s is missing from DESIGN.md §1's layering block", rel)
		}
	}
}

// nestedModule reports whether dir, under root, belongs to a module of its
// own: a go.mod in dir or in a directory between it and root.
func nestedModule(root, dir string) bool {
	for ; dir != root && len(dir) > len(root); dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return true
		}
	}
	return false
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
