// Package directive parses the //phonocmap:* justification comments
// that suppress or enable checks in the phonocmap-lint suite:
//
//	//phonocmap:ordered <why iteration order cannot leak>
//	//phonocmap:wallclock <why this wall-clock read is contractually allowed>
//	//phonocmap:noalloc            (on a func: opt in to the allocation check)
//	//phonocmap:envelope           (on a func: this IS the error-envelope writer)
//
// A directive attaches to the statement on its own line (trailing
// comment) or to the line directly below it (preceding comment line),
// mirroring how //go: directives bind. Directives that gate whole
// functions (noalloc, envelope) live in the function's doc comment.
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix is the comment marker shared by all phonocmap directives.
const Prefix = "phonocmap:"

// Directive is one parsed //phonocmap:name reason comment.
type Directive struct {
	Name   string // "ordered", "wallclock", ...
	Reason string // justification text after the name; may be empty
	Pos    token.Pos
}

// Map indexes a file's directives by the source line they annotate.
type Map struct {
	fset    *token.FileSet
	byLine  map[int][]Directive
	reasons []Directive
}

// Parse collects every directive in the file.
func Parse(fset *token.FileSet, file *ast.File) *Map {
	m := &Map{fset: fset, byLine: make(map[int][]Directive)}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			d, ok := parseComment(c)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			m.byLine[line] = append(m.byLine[line], d)
			m.reasons = append(m.reasons, d)
		}
	}
	return m
}

func parseComment(c *ast.Comment) (Directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, "//"+Prefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(text, "//"+Prefix)
	name, reason, _ := strings.Cut(rest, " ")
	return Directive{Name: name, Reason: strings.TrimSpace(reason), Pos: c.Pos()}, true
}

// At reports whether a directive with the given name annotates the node:
// on the node's starting line or on the line directly above it.
func (m *Map) At(name string, node ast.Node) bool {
	line := m.fset.Position(node.Pos()).Line
	for _, l := range [2]int{line, line - 1} {
		for _, d := range m.byLine[l] {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// OnFunc reports whether the function's doc comment carries the named
// directive.
func OnFunc(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if d, ok := parseComment(c); ok && d.Name == name {
			return true
		}
	}
	return false
}
