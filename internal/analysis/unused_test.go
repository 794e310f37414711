package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestInternalAPIHasCallers fails when an exported func, method, type, const
// or package-level var of an internal/ package has no use in any non-test
// file of the module. Code that only its own tests call is code the
// simulator maintains for nobody; delete it, or mark a deliberate test
// observer with //c3dlint:allow unused(reason) on or above its declaration.
//
// A use inside the object's own declaration does not count: a function's
// recursion, or a type named by its own methods. A method that implements a
// method of an interface (any interface the module names, error, or one
// exported by the packages in stdInterfacePkgs) is exempt, because calls
// through the interface never name the concrete method.
func TestInternalAPIHasCallers(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.ModulePackages()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}

	used := map[types.Object]bool{}
	ifaceSet := map[*types.Interface]bool{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true,
	}
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				ifaceSet[it] = true
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				self := declaredBy(p.Info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if obj := p.Info.Uses[id]; obj != nil && !self[origin(obj)] {
						used[origin(obj)] = true
					}
					return true
				})
			}
		}
	}
	for _, path := range stdInterfacePkgs {
		pkg, err := l.Import(path)
		if err != nil {
			t.Fatalf("importing %s: %v", path, err)
		}
		for _, name := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				ifaceSet[it] = true
			}
		}
	}
	ifaces := make([]*types.Interface, 0, len(ifaceSet))
	for it := range ifaceSet {
		ifaces = append(ifaces, it)
	}

	var unused []string
	report := func(p *Package, obj types.Object, name string) {
		pos := l.Fset().Position(obj.Pos())
		if used[obj] || p.allowed("unused", pos.Filename, pos.Line) {
			return
		}
		unused = append(unused, pos.String()+": "+name)
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, l.ModulePath+"/internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(p, obj, p.Path+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !implementsSome(named, m.Name(), ifaces) {
					report(p, m, p.Path+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests", u)
	}
}

// stdInterfacePkgs are the standard-library packages whose exported
// interfaces (Stringer, the JSON and text marshalers, the io and http
// interfaces, sort.Interface, flag.Value) module types implement without
// naming them.
var stdInterfacePkgs = []string{"fmt", "encoding", "encoding/json", "io", "net/http", "sort", "flag"}

// declaredBy returns the objects a top-level declaration defines, plus, for a
// method, its receiver's type: uses of those inside the declaration are the
// declaration talking about itself.
func declaredBy(info *types.Info, decl ast.Decl) map[types.Object]bool {
	self := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self[info.Defs[d.Name]] = true
		if d.Recv != nil {
			if fn, ok := info.Defs[d.Name].(*types.Func); ok {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				if named, ok := recv.(*types.Named); ok {
					self[named.Origin().Obj()] = true
				}
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok {
				self[info.Defs[ts.Name]] = true
			}
		}
	}
	return self
}

// origin maps an instantiated generic function, method or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implementsSome reports whether named or its pointer implements an
// interface that has a method called method.
func implementsSome(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && (types.Implements(named, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
