// Command c3dlint runs the repo's custom static analyzers — the
// compile-time half of the invariants the CI gates check dynamically:
//
//	determinism   no unsorted map ranges / global rand / wall-clock reads
//	              in result-producing packages
//	ctxcheck      long-running loops stay cancellable
//	wirecompat    pkg/c3d/api: explicit json tags, stdlib-only imports
//	errenvelope   API errors only through the uniform envelope helper
//
// Usage:
//
//	c3dlint [-json] [packages]
//
// With no arguments (or "./...") it analyzes every package of the module.
// Findings print as file:line:col: [analyzer] message and exit status 1;
// -json emits a machine-readable array of {file,line,col,analyzer,message}
// objects (paths relative to the module root) so findings can be diffed
// across commits. Sites that are deliberate carry a
// //c3dlint:allow analyzer(reason) directive on or above the flagged line;
// the reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"c3d/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (file, line, col, analyzer, message)")
	help := flag.Bool("help-analyzers", false, "print each analyzer's documentation and exit")
	flag.Parse()

	if *help {
		for _, a := range analysis.All() {
			fmt.Printf("%s:\n%s\n\n", a.Name, a.Doc)
		}
		return
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}

	var pkgs []*analysis.Package
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			all, err := loader.ModulePackages()
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, all...)
		default:
			p, err := loader.Load(importPath(loader, arg))
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, p)
		}
	}

	diags, err := analysis.RunAnalyzers(loader.Fset(), pkgs, analysis.All())
	if err != nil {
		fatal(err)
	}
	// Report paths relative to the module root: stable across checkouts,
	// diffable across commits.
	for i := range diags {
		if rel, err := filepath.Rel(loader.ModuleDir, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "c3dlint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// importPath turns a package argument (./internal/server, internal/server,
// or a full import path) into the module-rooted import path.
func importPath(l *analysis.Loader, arg string) string {
	if arg == "." {
		return l.ModulePath
	}
	if strings.HasPrefix(arg, l.ModulePath) {
		return arg
	}
	clean := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(arg, "./")))
	return l.ModulePath + "/" + clean
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "c3dlint:", err)
	os.Exit(2)
}
