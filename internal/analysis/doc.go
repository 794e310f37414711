// Package analysis implements c3dlint: the repo's custom static analyzers
// plus the dependency-free driver that runs them.
//
// Everything this reproduction promises — byte-identical results at any
// parallelism, crash-resumable campaigns, a frozen wire API — is enforced
// dynamically by CI gates that byte-compare outputs. Those gates can only
// cover the code paths they execute; the analyzers here reject
// invariant-violating code at `make lint` time, before a single simulation
// runs. Four checks ship:
//
//	determinism   unsorted map ranges, global math/rand, wall-clock reads
//	              in the result-producing packages (internal/machine, mc,
//	              sweep, experiments, stats, trace, pkg/c3d)
//	ctxcheck      long-running loops in machine/mc/sweep/campaign must stay
//	              cancellable (ctx.Err/ctx.Done or a ctx-threaded call)
//	wirecompat    pkg/c3d/api: explicit json tag on every exported field,
//	              stdlib-only imports
//	errenvelope   API errors only through the writeError envelope helper
//
// A finding at a site that is genuinely safe is silenced in place, with the
// justification kept next to the code:
//
//	//c3dlint:allow determinism(collection only; keys are sorted below)
//	for k := range m { ... }
//
// The reason is mandatory — an empty or missing reason is itself a finding —
// and the directive covers exactly its own line and the line below it, so a
// silence can never drift away from the site it excuses.
//
// # Driver
//
// The Analyzer/Pass shape deliberately mirrors
// golang.org/x/tools/go/analysis, but the driver is built on the standard
// library alone (go/parser + go/types, with stdlib imports resolved by the
// compiler's source importer and module-local imports resolved recursively
// by the Loader). The module therefore stays dependency-free; if it ever
// adopts x/tools, each Run function ports to an analysis.Analyzer almost
// verbatim and this driver retires.
//
// # Adding an analyzer
//
// Write one file in this package with an *Analyzer and its Run function,
//
//	var FrobAnalyzer = &Analyzer{
//		Name: "frobcheck",
//		Doc:  "one-line summary, then the contract being enforced",
//		Run:  runFrob,
//	}
//
//	func runFrob(pass *Pass) error {
//		if !frobScope[pass.Pkg.Path] {
//			return nil // scope by package path, firing nowhere else
//		}
//		for _, f := range pass.Pkg.Files {
//			ast.Inspect(f, func(n ast.Node) bool {
//				// use pass.Pkg.Info for type facts,
//				// pass.Reportf(n.Pos(), ...) for findings
//				return true
//			})
//		}
//		return nil
//	}
//
// then add it to All() (cmd/c3dlint and the allow directive pick the name up
// from there), create positive and negative fixtures under
// testdata/<name>/ with // want "regex" comments on every line that must be
// flagged, and add a test calling runFixture with the production import path
// the fixture stands in for. Reportf consults the allow table automatically,
// so every analyzer gets the escape hatch for free. Run `make lint` — the
// merged tree must be finding-free.
package analysis
