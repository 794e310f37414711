package analysis

import (
	"go/ast"
	"reflect"
	"strconv"
	"strings"
)

// wireScope is the frozen wire-contract package. The runtime compat test
// pins every field name; this analyzer adds the compile-time half of the
// guarantee: no field can reach the wire with an implicit (field-name-derived)
// JSON key, and the package can never grow a dependency that would drag
// simulator code into every client build.
var wireScope = map[string]bool{
	"c3d/pkg/c3d/api": true,
}

// WireCompatAnalyzer guards the public wire contract of pkg/c3d/api.
var WireCompatAnalyzer = &Analyzer{
	Name: "wirecompat",
	Doc: `pkg/c3d/api must tag every exported field and stay stdlib-only

Every exported field of every struct declared in the wire package needs an
explicit json struct tag ("-" counts: it is an explicit decision to keep the
field off the wire). An untagged field marshals under its Go name, which
silently becomes wire format the moment it ships. The package's imports must
all be standard library: clients import it to talk to a daemon, not to link
the simulator.`,
	Run: runWireCompat,
}

func runWireCompat(pass *Pass) error {
	if !wireScope[pass.Pkg.Path] {
		return nil
	}
	modPrefix := modulePrefix(pass.Pkg.Path)
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if !stdlibImport(path, modPrefix) {
				pass.Reportf(imp.Pos(), "wire package imports %q: pkg/c3d/api must stay stdlib-only so clients never link simulator code", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				checkWireField(pass, ts.Name.Name, field)
			}
			return true
		})
	}
	return nil
}

func checkWireField(pass *Pass, structName string, field *ast.Field) {
	// Embedded fields carry their own type's tags; a named exported field is
	// the wire surface being checked.
	names := field.Names
	if len(names) == 0 {
		return
	}
	var exported []string
	for _, n := range names {
		if n.IsExported() {
			exported = append(exported, n.Name)
		}
	}
	if len(exported) == 0 {
		return
	}
	if field.Tag == nil {
		pass.Reportf(field.Pos(), "%s.%s has no struct tag: every exported wire field needs an explicit json tag (use `json:\"-\"` to keep it off the wire)", structName, strings.Join(exported, ","))
		return
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		pass.Reportf(field.Tag.Pos(), "%s.%s has an unparseable struct tag", structName, strings.Join(exported, ","))
		return
	}
	tag, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		pass.Reportf(field.Tag.Pos(), "%s.%s has a struct tag but no json key: the wire name must be explicit", structName, strings.Join(exported, ","))
		return
	}
	if name, _, _ := strings.Cut(tag, ","); name == "" {
		pass.Reportf(field.Tag.Pos(), "%s.%s has a json tag with an empty name (%q): the field would marshal under its Go name", structName, strings.Join(exported, ","), tag)
	}
}

// stdlibImport reports whether path is a standard-library import: no module
// prefix and no dot in the first path element (the host part of any fetched
// module path).
func stdlibImport(path, modPrefix string) bool {
	if strings.HasPrefix(path+"/", modPrefix) {
		return false
	}
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".")
}

// modulePrefix returns the "c3d/" module prefix for a package path. Fixture
// packages loaded under synthetic paths share the same module namespace.
func modulePrefix(pkgPath string) string {
	if i := strings.Index(pkgPath, "/"); i >= 0 {
		return pkgPath[:i] + "/"
	}
	return pkgPath + "/"
}
