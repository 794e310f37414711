package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check: a name (used in diagnostics and in
// //c3dlint:allow directives), a doc string, and a Run function over a
// type-checked package. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the implementations can migrate to the
// real multichecker wholesale once the module may depend on x/tools; until
// then the driver in this package stands in for it with no dependencies
// beyond the standard library.
type Analyzer struct {
	Name string
	// Doc is the analyzer's one-paragraph description, shown by
	// `c3dlint -help`.
	Doc string
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package plus the Report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags []Diagnostic
}

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a message. File is relative to the module root when the driver can make it
// so, which keeps -json output diffable across checkouts.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an allow directive for this
// analyzer covers the line (same line, or the whole line directly above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Pkg.allowed(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowDirective is one parsed //c3dlint:allow analyzer(reason) comment.
type allowDirective struct {
	analyzer string
	reason   string
}

// directiveRe parses //c3dlint:allow analyzer(reason). A trailing "// want"
// comment is tolerated so fixture files can assert on directive lines.
var directiveRe = regexp.MustCompile(`^//c3dlint:allow\s+([a-z]\w*)\((.*)\)\s*(?:// want .*)?$`)

// collectDirectives scans every comment of every file for c3dlint
// directives. Well-formed allows are indexed by file and line; malformed
// ones (wrong shape, or an empty reason — a silence without a justification)
// come back as ready-made diagnostics.
func collectDirectives(fset *token.FileSet, files []*ast.File) (map[string]map[int][]allowDirective, []Diagnostic) {
	allows := map[string]map[int][]allowDirective{}
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, "//c3dlint:") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := directiveRe.FindStringSubmatch(text)
				if m == nil || !strings.HasPrefix(text, "//c3dlint:allow") {
					malformed = append(malformed, Diagnostic{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Analyzer: "c3dlint",
						Message:  fmt.Sprintf("malformed directive %q: want //c3dlint:allow analyzer(reason)", text),
					})
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					malformed = append(malformed, Diagnostic{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Analyzer: "c3dlint",
						Message:  fmt.Sprintf("allow directive for %q needs a non-empty reason", m[1]),
					})
					continue
				}
				byLine := allows[pos.Filename]
				if byLine == nil {
					byLine = map[int][]allowDirective{}
					allows[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], allowDirective{analyzer: m[1], reason: m[2]})
			}
		}
	}
	return allows, malformed
}

// allowed reports whether a diagnostic from analyzer at file:line is
// silenced by a well-formed directive on that line or the line above.
func (p *Package) allowed(analyzer, file string, line int) bool {
	byLine := p.allows[file]
	if byLine == nil {
		return false
	}
	for _, l := range []int{line, line - 1} {
		for _, d := range byLine[l] {
			if d.analyzer == analyzer {
				return true
			}
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by file, line, column and analyzer name — a deterministic
// order, like everything else in this repo. Malformed directives are
// reported once per package regardless of which analyzers ran.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if !seen[pkg.Path] {
			seen[pkg.Path] = true
			out = append(out, pkg.malformed...)
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
			out = append(out, pass.diags...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// All returns the four c3dlint analyzers in their canonical order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		CtxCheckAnalyzer,
		WireCompatAnalyzer,
		ErrEnvelopeAnalyzer,
	}
}
