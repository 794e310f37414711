package analysis

import (
	"go/ast"
	"go/types"
)

// determinismScope lists the result-producing packages: everything whose
// output feeds the byte-compared artefacts (simulation results, sweep JSON,
// model-check reports, trace statistics, SDK result documents). Service
// plumbing (internal/server, internal/campaign, internal/faultify) is
// deliberately out of scope — wall-clock time and scheduling nondeterminism
// are part of its job, and its determinism obligations (result bytes) are
// enforced where the bytes are produced.
var determinismScope = map[string]bool{
	"c3d":                      true,
	"c3d/internal/machine":     true,
	"c3d/internal/mc":          true,
	"c3d/internal/sample":      true,
	"c3d/internal/sweep":       true,
	"c3d/internal/experiments": true,
	"c3d/internal/stats":       true,
	"c3d/internal/trace":       true,
	"c3d/internal/workload":    true,
	"c3d/internal/wspec":       true,
	"c3d/pkg/c3d":              true,
}

// globalRandFuncs are the math/rand top-level functions that draw from the
// package-global, possibly-unseeded source. Constructors (New, NewSource,
// NewZipf) are fine: a *rand.Rand built from an explicit seed is exactly how
// deterministic code is supposed to get randomness.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions, should the import ever appear.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint64N": true,
}

// wallClockFuncs are the time functions that read the wall clock. Only
// calls are flagged: a bare reference to time.Now is the injected-clock
// idiom (campaign's tokenBucket stores `now: time.Now` and tests swap it),
// which is precisely the pattern this analyzer wants code to use.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// DeterminismAnalyzer enforces the repo's headline guarantee — byte-identical
// results at any parallelism — at the source level, in the packages that
// produce result bytes.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: `flag iteration-order and wall-clock nondeterminism in result-producing packages

Reports, in the packages whose output is byte-compared (internal/machine, mc,
sample, sweep, experiments, stats, trace, workload, wspec, pkg/c3d and the
module root):

  - range over a map: iteration order is random per execution; iterate a
    sorted key slice instead
  - calls to math/rand's top-level functions: they draw from the global
    source; build a seeded *rand.Rand
  - calls to time.Now / time.Since / time.Until: wall-clock reads; inject a
    clock (store time.Now in a func field, as campaign's tokenBucket does)

A bare reference to time.Now (not a call) is the injection pattern and is
never flagged. Genuinely order- or time-insensitive sites carry
//c3dlint:allow determinism(reason).`,
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !determinismScope[pass.Pkg.Path] {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "range over map %s has nondeterministic iteration order; iterate sorted keys, or annotate //c3dlint:allow determinism(reason) if order cannot reach the result", types.ExprString(n.X))
					}
				}
			case *ast.CallExpr:
				pkgPath, name := calleePackageFunc(info, n)
				switch {
				case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && globalRandFuncs[name]:
					pass.Reportf(n.Pos(), "rand.%s draws from the global (unseeded) source; use a seeded *rand.Rand", name)
				case pkgPath == "time" && wallClockFuncs[name]:
					pass.Reportf(n.Pos(), "time.%s reads the wall clock in a result-producing package; inject a clock (the tokenBucket.now pattern), or annotate //c3dlint:allow determinism(reason) if the value cannot reach the result", name)
				}
			}
			return true
		})
	}
	return nil
}

// calleePackageFunc resolves a call of the form pkg.Fn(...) to the imported
// package path and function name; it returns "" for anything else (method
// calls, locally-defined functions, calls through variables).
func calleePackageFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
