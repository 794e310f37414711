package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package: the unit every
// analyzer runs over. Only non-test files are loaded — the invariants the
// analyzers enforce are invariants of production code, and several of them
// (map ranges, time.Now) are deliberately legal in tests.
type Package struct {
	// Path is the import path ("c3d/internal/machine"). Analyzers scope
	// themselves by it.
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files are the parsed non-test files, with comments.
	Files []*ast.File
	// Types and Info are the go/types view of the package.
	Types *types.Package
	Info  *types.Info
	// allows maps file name -> line -> allow directives on that line.
	allows map[string]map[int][]allowDirective
	// malformed collects c3dlint directives that fail to parse (most
	// importantly: an allow with an empty reason). They are reported as
	// findings so a silenced site can never lose its justification.
	malformed []Diagnostic
}

// Loader parses and type-checks module packages without the go/packages
// machinery: stdlib imports resolve through the compiler's source importer
// (GOROOT source, no network), module-local imports recurse through the
// loader itself. Everything is memoized, so loading all of ./... shares one
// type-checked view of the standard library.
type Loader struct {
	fset       *token.FileSet
	std        types.ImporterFrom
	ModulePath string
	ModuleDir  string
	pkgs       map[string]*Package
	loading    map[string]bool
}

// NewLoader builds a loader rooted at the module containing dir (the nearest
// parent with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modpath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modpath = strings.TrimSpace(rest)
			break
		}
	}
	if modpath == "" {
		return nil, fmt.Errorf("no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		ModulePath: modpath,
		ModuleDir:  root,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// Fset returns the loader's shared file set; all diagnostic positions
// resolve through it.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load through
// the loader, everything else through the stdlib source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.load(path, l.dirFor(path), true)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
}

// Load type-checks the package with the given import path rooted in the
// module, memoized across calls.
func (l *Loader) Load(path string) (*Package, error) {
	return l.load(path, l.dirFor(path), true)
}

// LoadDir type-checks the package in dir under the given import path. It is
// how the test harness loads fixture packages as if they lived at a
// production path, so path-scoped analyzers fire on them. Fixture packages
// are never memoized: the synthetic path must not shadow the real package
// in the loader's cache.
//
//c3dlint:allow unused(how the fixture tests load testdata packages under production import paths)
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.load(asPath, dir, false)
}

func (l *Loader) load(path, dir string, memo bool) (*Package, error) {
	if p, ok := l.pkgs[path]; ok && memo {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}

	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	p.allows, p.malformed = collectDirectives(l.fset, files)
	if memo {
		l.pkgs[path] = p
	}
	return p, nil
}

// ModulePackages enumerates every package directory of the module (skipping
// testdata, hidden directories and bin) and loads each. Directories that
// contain only test files are skipped.
func (l *Loader) ModulePackages() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.ModuleDir && (name == "testdata" || name == "bin" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return err
		}
		ip := l.ModulePath
		if rel != "." {
			ip = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != ip {
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var pkgs []*Package
	for _, ip := range paths {
		p, err := l.Load(ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
