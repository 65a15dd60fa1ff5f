// Package lint implements avdlint: a repo-specific static-analysis
// suite that enforces the determinism and snapshot contracts everything
// in this reproduction depends on (DESIGN.md §9).
//
// The framework mirrors the golang.org/x/tools/go/analysis shape —
// Analyzer, Pass, Diagnostic — but is built purely on the standard
// library's go/ast + go/types, because the container this repository
// grows in has no module proxy access. The trade-offs are documented in
// load.go; the analyzers themselves would port to x/tools/go/analysis
// nearly verbatim if the dependency ever becomes available (at which
// point `go vet -vettool=avdlint` comes for free via unitchecker).
//
// Three analyzers ship today:
//
//   - nondet: wall clocks, global math/rand, sleeps, goroutine spawns
//     and observable-effect map iteration in the deterministic packages.
//   - snapcover: every mutable field of a type with a Snapshot/Restore
//     (or Crash/Restart) pair must be covered by the pair or annotated.
//   - resultcov: every core.Result field must flow through the CSV
//     writer, the campaign summary, and the checkpoint encode/decode.
//
// Suppressions are explicit and carry a reason:
//
//	//avdlint:allow <reason>            // same line or the line above
//	//avdlint:derived <reason>          // snapcover: field is derived
//	//avdlint:ephemeral <reason>        // snapcover: field is per-run scratch
//
// An allow comment with an empty reason is itself a finding: audited
// exceptions must say why they are safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer checks one contract over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-paragraph description printed by avdlint -help.
	Doc string
	// Run inspects one package and reports findings through the pass.
	// Analyzers that need a whole-program view (resultcov) set RunProgram
	// instead.
	Run func(*Pass)
	// RunProgram inspects the whole loaded program at once.
	RunProgram func(*Program, *Reporter)
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Prog     *Program
	rep      *Reporter
}

// Reportf records a finding at pos unless an //avdlint:allow comment
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.rep.reportf(p.Analyzer, p.Prog.Fset, pos, format, args...)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed is true when an //avdlint:allow comment covered the
	// finding; Reason carries the comment's justification.
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
	if d.Suppressed {
		s += fmt.Sprintf(" (allowed: %s)", d.Reason)
	}
	return s
}

// A Reporter accumulates diagnostics across analyzers and applies the
// suppression comments collected at load time.
type Reporter struct {
	prog  *Program
	diags []Diagnostic
}

// NewReporter returns a reporter applying prog's suppression comments.
func NewReporter(prog *Program) *Reporter { return &Reporter{prog: prog} }

func (r *Reporter) reportf(a *Analyzer, fset *token.FileSet, pos token.Pos, format string, args ...any) {
	position := fset.Position(pos)
	d := Diagnostic{
		Analyzer: a.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	}
	if reason, ok := r.prog.allowAt(position); ok {
		d.Suppressed, d.Reason = true, reason
	}
	r.diags = append(r.diags, d)
}

// Diagnostics returns every finding in file/line order, suppressed ones
// included.
func (r *Reporter) Diagnostics() []Diagnostic {
	sort.SliceStable(r.diags, func(i, j int) bool {
		a, b := r.diags[i].Pos, r.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return r.diags[i].Analyzer < r.diags[j].Analyzer
	})
	return r.diags
}

// Unsuppressed returns the findings no allow comment covers — the set
// that fails the build.
func (r *Reporter) Unsuppressed() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics() {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// RunAnalyzers applies each analyzer to every package of prog (or to the
// program as a whole, for RunProgram analyzers) and returns the combined
// reporter. Empty-reason allow comments are reported as findings of a
// synthetic "suppression" analyzer so audits cannot silently erode.
func RunAnalyzers(prog *Program, analyzers ...*Analyzer) *Reporter {
	rep := NewReporter(prog)
	for _, a := range analyzers {
		if a.RunProgram != nil {
			a.RunProgram(prog, rep)
			continue
		}
		for _, pkg := range prog.Pkgs {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Prog: prog, rep: rep})
		}
	}
	badAllow := &Analyzer{Name: "suppression"}
	for _, s := range prog.suppressions {
		if s.kind == allowKind && strings.TrimSpace(s.reason) == "" {
			rep.diags = append(rep.diags, Diagnostic{
				Analyzer: badAllow.Name,
				Pos:      s.pos,
				Message:  "//avdlint:allow needs a reason: say why the site is safe",
			})
		}
	}
	return rep
}

// --- Suppression comments ---------------------------------------------------

type suppressionKind int

const (
	allowKind suppressionKind = iota
	derivedKind
	ephemeralKind
)

type suppression struct {
	kind   suppressionKind
	reason string
	pos    token.Position
	// standalone is true when the comment owns its line (it then also
	// covers the next line); false for trailing comments (same line only).
	standalone bool
}

const (
	allowPrefix     = "//avdlint:allow"
	derivedPrefix   = "//avdlint:derived"
	ephemeralPrefix = "//avdlint:ephemeral"
)

// parseSuppressions scans a file's comments for avdlint directives.
func parseSuppressions(fset *token.FileSet, f *ast.File) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			kind, reason := allowKind, ""
			switch {
			case strings.HasPrefix(c.Text, allowPrefix):
				kind, reason = allowKind, strings.TrimPrefix(c.Text, allowPrefix)
			case strings.HasPrefix(c.Text, derivedPrefix):
				kind, reason = derivedKind, strings.TrimPrefix(c.Text, derivedPrefix)
			case strings.HasPrefix(c.Text, ephemeralPrefix):
				kind, reason = ephemeralKind, strings.TrimPrefix(c.Text, ephemeralPrefix)
			default:
				continue
			}
			pos := fset.Position(c.Pos())
			out = append(out, suppression{
				kind:       kind,
				reason:     strings.TrimSpace(reason),
				pos:        pos,
				standalone: pos.Column == 1 || startsLine(fset, f, c),
			})
		}
	}
	return out
}

// startsLine reports whether nothing but whitespace precedes the comment
// on its line (so the directive covers the following line too).
func startsLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	first := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !first {
			return false
		}
		if n.Pos().IsValid() && n.Pos() < c.Pos() {
			p := fset.Position(n.Pos())
			if p.Line == pos.Line {
				first = false
				return false
			}
		}
		return true
	})
	return first
}

// allowAt reports whether an allow directive covers the position: on the
// same line, or standalone on the line directly above.
func (prog *Program) allowAt(pos token.Position) (string, bool) {
	for _, s := range prog.suppressions {
		if s.kind != allowKind || s.pos.Filename != pos.Filename {
			continue
		}
		if s.pos.Line == pos.Line || (s.standalone && s.pos.Line == pos.Line-1) {
			return s.reason, true
		}
	}
	return "", false
}

// fieldDirective reports a derived/ephemeral/allow directive attached to
// a struct field: in its doc comment, its trailing comment, or the line
// above.
func (prog *Program) fieldDirective(fset *token.FileSet, field *ast.Field) (string, bool) {
	check := func(cg *ast.CommentGroup) (string, bool) {
		if cg == nil {
			return "", false
		}
		for _, c := range cg.List {
			for _, prefix := range []string{derivedPrefix, ephemeralPrefix, allowPrefix} {
				if strings.HasPrefix(c.Text, prefix) {
					return strings.TrimSpace(strings.TrimPrefix(c.Text, prefix)), true
				}
			}
		}
		return "", false
	}
	if r, ok := check(field.Doc); ok {
		return r, ok
	}
	if r, ok := check(field.Comment); ok {
		return r, ok
	}
	// A standalone directive on the line above the field (fields inside
	// multi-name declarations may not own a doc group).
	pos := fset.Position(field.Pos())
	for _, s := range prog.suppressions {
		if s.pos.Filename == pos.Filename && s.standalone && s.pos.Line == pos.Line-1 {
			return s.reason, true
		}
	}
	return "", false
}
