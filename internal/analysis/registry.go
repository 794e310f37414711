package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"unicode"
	"unicode/utf8"
)

// RegistryAnalyzer guards the one open registry left in the module: the
// workload registry (workload.Register), which wspec.RegisterPresets extends
// from another package with the preset library. Register panics on
// duplicates, which is only safe because registration happens exactly once,
// at package initialisation. A Register call from ordinary runtime code turns
// that panic into a latent crash and makes the registry's contents
// order-dependent. (Designs, topologies, routing policies and fault plans are
// static tables with nothing to register.)
var RegistryAnalyzer = &Analyzer{
	Name: "registry",
	Doc: `Register-style calls may only appear in init functions

Calls to module functions named Register or RegisterXxx (workload.Register,
wspec.RegisterPresets) must be made from a func init() or from another
Register wrapper that init calls. Test files are not analyzed, so test-local
registration stays legal.`,
	Run: runRegistry,
}

func runRegistry(pass *Pass) error {
	modPrefix := modulePrefix(pass.Pkg.Path)
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		// Walk with an explicit enclosing-function stack so a call site can
		// be attributed to the FuncDecl it executes under.
		var stack []*ast.FuncDecl
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					stack = append(stack, n)
					if n.Body != nil {
						walk(n.Body)
					}
					stack = stack[:len(stack)-1]
					return false
				case *ast.CallExpr:
					fn := calleeFunc(info, n)
					if fn == nil || !isRegisterName(fn.Name()) {
						return true
					}
					if fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path()+"/", modPrefix) {
						return true
					}
					if registrationContextOK(stack) {
						return true
					}
					pass.Reportf(n.Pos(), "%s.%s called outside init: registries self-register at package initialisation (panic-on-duplicate is only safe there)", fn.Pkg().Name(), fn.Name())
				}
				return true
			})
		}
		walk(f)
	}
	return nil
}

// registrationContextOK reports whether the innermost enclosing FuncDecl is
// a legal registration site: func init(), or a Register wrapper itself
// (RegisterPresets compiling then storing, a registerBuiltins helper named
// accordingly).
func registrationContextOK(stack []*ast.FuncDecl) bool {
	if len(stack) == 0 {
		// Package-level var initialiser: runs at init time.
		return true
	}
	fd := stack[len(stack)-1]
	if fd.Recv == nil && fd.Name.Name == "init" {
		return true
	}
	return isRegisterName(fd.Name.Name) || strings.HasPrefix(fd.Name.Name, "register")
}

// isRegisterName matches Register and RegisterXxx (exported wrappers).
func isRegisterName(name string) bool {
	if name == "Register" {
		return true
	}
	rest, ok := strings.CutPrefix(name, "Register")
	if !ok {
		return false
	}
	r, _ := utf8.DecodeRuneInString(rest)
	return unicode.IsUpper(r)
}

// calleeFunc resolves a call to the *types.Func it invokes, if the callee is
// a plain identifier or selector (not a call through a variable).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// modulePrefix returns the "c3d/" module prefix for a package path. Fixture
// packages loaded under synthetic paths share the same module namespace.
func modulePrefix(pkgPath string) string {
	if i := strings.Index(pkgPath, "/"); i >= 0 {
		return pkgPath[:i] + "/"
	}
	return pkgPath + "/"
}
