package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsResolve: `go test -run X` passes when X matches no
// test at all, so a renamed test silently drops out of every CI step and
// documented command that names it. For each `go test` command line of
// the CI workflow and the verify skill, every |-alternative of its -run,
// -fuzz, -bench and -skip patterns — the top-level element, before any /
// naming a subtest — must match a function of the right kind in the
// _test.go files of a package the command names, and every package it
// names must hold a match for one of them (a ./... pattern counts as one
// package).
func TestCIRunPatternsResolve(t *testing.T) {
	root := loadRepo(t).Root
	var commands []string
	for _, doc := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range goTestCommands(string(src), strings.HasSuffix(doc, ".md")) {
			commands = append(commands, doc+": "+cmd)
		}
	}
	if len(commands) < 20 {
		t.Fatalf("found %d go test commands: the scan no longer finds them", len(commands))
	}
	for _, cmd := range commands {
		doc, line, _ := strings.Cut(cmd, ": ")
		dir, pkgs, patterns := parseGoTest(shellWords(line))
		if len(patterns) == 0 {
			continue
		}
		resolved := make([]bool, len(patterns))
		for _, pkg := range pkgs {
			var names []string
			for _, d := range expandPackage(t, filepath.Join(root, dir), pkg) {
				names = append(names, testFuncs(t, d)...)
			}
			idle := true
			for i, p := range patterns {
				if slices.ContainsFunc(names, p.matches) {
					resolved[i], idle = true, false
				}
			}
			if idle {
				t.Errorf("%s: `%s`: nothing in %s matches its patterns", doc, line, pkg)
			}
		}
		for i, p := range patterns {
			if !resolved[i] {
				t.Errorf("%s: `%s`: %s %q matches no %s function in %s", doc, line, p.flag, p.alt, strings.Join(p.kinds, "/"), strings.Join(pkgs, " "))
			}
		}
	}
}

// goTestCommands finds the `go test` command lines of a workflow, or of a
// Markdown document: lines of code blocks, and inline code spans, which
// may wrap.
func goTestCommands(src string, markdown bool) []string {
	candidates := strings.Split(src, "\n")
	if markdown {
		fences := regexp.MustCompile("(?s)```.*?```")
		candidates = strings.Split(strings.Join(fences.FindAllString(src, -1), "\n"), "\n")
		for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(fences.ReplaceAllString(src, ""), -1) {
			candidates = append(candidates, strings.ReplaceAll(span[1], "\n", " "))
		}
	}
	var out []string
	for _, c := range candidates {
		if i := strings.Index(c, "go test "); i >= 0 && !slices.Contains(out, c[i:]) {
			out = append(out, c[i:])
		}
	}
	return out
}

// shellWords splits a command line into words, honouring quotes, up to an
// unquoted comment, pipe, semicolon or ampersand.
func shellWords(line string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		case strings.ContainsRune("#|;&`", r):
			if inWord {
				words = append(words, word.String())
			}
			return words
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}

// runPattern is one |-alternative of a -run, -fuzz, -bench or -skip
// pattern.
type runPattern struct {
	flag, alt string
	kinds     []string
	re        *regexp.Regexp
}

func (p runPattern) matches(name string) bool {
	return slices.ContainsFunc(p.kinds, func(k string) bool { return strings.HasPrefix(name, k) }) && p.re.MatchString(name)
}

// parseGoTest reads `go test` words: the -C directory, the packages (. when
// none) and the patterns that must resolve. Patterns that match the empty
// name, like -run '^$', select nothing on purpose and are left out.
func parseGoTest(words []string) (dir string, pkgs []string, patterns []runPattern) {
	kinds := map[string][]string{
		"-run": {"Test", "Fuzz", "Example"}, "-skip": {"Test", "Fuzz", "Example"},
		"-fuzz": {"Fuzz"}, "-bench": {"Benchmark"},
	}
	valued := []string{"-C", "-count", "-benchtime", "-fuzztime", "-timeout", "-p", "-cpu", "-parallel", "-list", "-tags", "-o"}
	dir = "."
	words = words[2:] // go test
	for i := 0; i < len(words); i++ {
		flag, value, hasValue := strings.Cut(words[i], "=")
		if !strings.HasPrefix(flag, "-") {
			pkgs = append(pkgs, words[i])
			continue
		}
		if kinds[flag] == nil && !slices.Contains(valued, flag) {
			continue // a boolean flag
		}
		if !hasValue && i+1 < len(words) {
			i++
			value = words[i]
		}
		if flag == "-C" {
			dir = value
			continue
		}
		// An anchor of the whole pattern, ^(A|B)$, anchors each alternative.
		top, _, _ := strings.Cut(value, "/")
		begin, end := strings.HasPrefix(top, "^"), strings.HasSuffix(top, "$")
		for _, alt := range strings.Split(top, "|") {
			expr := strings.NewReplacer("(", "", ")", "", "^", "", "$", "").Replace(alt)
			if begin {
				expr = "^" + expr
			}
			if end {
				expr += "$"
			}
			re := regexp.MustCompile(expr)
			if kinds[flag] != nil && !re.MatchString("") {
				patterns = append(patterns, runPattern{flag: flag, alt: alt, kinds: kinds[flag], re: re})
			}
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return dir, pkgs, patterns
}

// expandPackage resolves a package argument relative to dir: a directory,
// or every directory under one for a /... pattern.
func expandPackage(tb testing.TB, dir, pkg string) []string {
	if base, ok := strings.CutSuffix(pkg, "/..."); ok {
		return testDirs(tb, filepath.Join(dir, base))
	}
	return []string{filepath.Join(dir, pkg)}
}

// TestTargetTestStaysTestOnly: internal/core/targettest is test code — no
// shipped package imports it — and it imports nothing but core and what
// core imports, so no target or campaign, whose in-package tests import
// it, can close an import cycle through it.
func TestTargetTestStaysTestOnly(t *testing.T) {
	prog := loadRepo(t)
	suite := prog.ModulePath + "/internal/core/targettest"
	for _, p := range prog.Pkgs {
		for _, imp := range p.Types.Imports() {
			if imp.Path() == suite {
				t.Errorf("%s imports %s, which only _test.go files may", p.PkgPath, suite)
			}
		}
	}
	allowed := map[string]bool{prog.ModulePath + "/internal/core": true}
	var walk func(path string)
	walk = func(path string) {
		for _, imp := range prog.Package(path).Types.Imports() {
			if strings.HasPrefix(imp.Path(), prog.ModulePath+"/") && !allowed[imp.Path()] {
				allowed[imp.Path()] = true
				walk(imp.Path())
			}
		}
	}
	walk(prog.ModulePath + "/internal/core")
	p := prog.Package(suite)
	if p == nil {
		t.Fatalf("%s is not in the tree", suite)
	}
	for _, imp := range p.Types.Imports() {
		if strings.HasPrefix(imp.Path(), prog.ModulePath+"/") && !allowed[imp.Path()] {
			t.Errorf("%s imports %s, which core does not", suite, imp.Path())
		}
	}
}
