// Package loader parses and type-checks packages of this module for
// the optlint analyzers. It is a minimal, offline replacement for
// golang.org/x/tools/go/packages: module-internal imports are resolved
// by recursively loading their directories, and standard-library
// imports are type-checked from $GOROOT/src via go/importer's source
// mode, so no module proxy, export data, or go list invocation is
// needed. The module must be dependency-free (this one is).
package loader

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
	"sync"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("filterjoin/internal/exec", or a fixture name)
	Dir   string // absolute directory
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-check errors. Analysis proceeds on
	// a best-effort basis when non-empty (mirrors go vet's behaviour).
	TypeErrors []error
}

// Loader loads packages of a single module.
type Loader struct {
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path declared in go.mod

	Fset *token.FileSet

	mu     sync.Mutex     // serializes Load/LoadDir (and guards the caches below)
	std    types.Importer // source-mode importer for GOROOT packages
	loaded map[string]*Package
	active map[string]bool // import-cycle detection
}

// sharedLoaders memoizes one Loader per module root for the whole
// process. Every LoadDir result is itself memoized per import path, so
// callers that share a Loader — the analysistest fixtures, the
// real-tree test, repeated optlint runs in one process — parse and
// type-check each package (and every stdlib dependency the source
// importer pulls in) exactly once instead of once per caller.
var (
	sharedMu      sync.Mutex
	sharedLoaders = map[string]*Loader{}
)

// NewShared returns the process-wide shared loader for the module at or
// above dir, creating it on first use. The shared loader serializes
// loads internally, so it is safe to use from concurrent tests; the
// returned packages must be treated as immutable.
func NewShared(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if l, ok := sharedLoaders[root]; ok {
		return l, nil
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		loaded:     map[string]*Package{},
		active:     map[string]bool{},
	}
	sharedLoaders[root] = l
	return l, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("loader: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("loader: no module directive in %s", gomod)
}

// Load expands the patterns ("./...", "./internal/exec", or import
// paths under the module) into package directories and loads each.
// Directories named testdata, hidden directories, and directories with
// no non-test .go files are skipped during ./... expansion.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var dirs []string
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			ds, err := l.walkDirs(l.ModuleRoot)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, ds...)
		case strings.HasSuffix(pat, "/..."):
			base := l.resolveDir(strings.TrimSuffix(pat, "/..."))
			ds, err := l.walkDirs(base)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, ds...)
		default:
			dirs = append(dirs, l.resolveDir(pat))
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	seen := map[string]bool{}
	for _, d := range dirs {
		if seen[d] {
			continue
		}
		seen[d] = true
		names, err := goFiles(d)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			continue
		}
		pkg, err := l.loadDir(d, l.importPathFor(d))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// resolveDir maps a pattern to an absolute directory: "./x" and "x"
// are module-root relative; an import path under the module maps to
// its directory.
func (l *Loader) resolveDir(pat string) string {
	if rest, ok := strings.CutPrefix(pat, l.ModulePath); ok {
		pat = "./" + strings.TrimPrefix(rest, "/")
	}
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	return filepath.Join(l.ModuleRoot, pat)
}

func (l *Loader) walkDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// LoadDir parses and type-checks the package in dir under the given
// import path, loading module-internal dependencies on demand. Results
// are memoized per import path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loadDir(dir, path)
}

// loadDir is LoadDir with l.mu held; the importer re-enters here for
// module-internal dependencies.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("loader: import cycle through %s", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{Path: path, Dir: dir, Files: files}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: &moduleImporter{l: l},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", path, err)
	}
	pkg.Pkg = tpkg
	pkg.Info = info
	l.loaded[path] = pkg
	return pkg, nil
}

// moduleImporter resolves module-internal imports through the loader
// and everything else through the GOROOT source importer.
type moduleImporter struct {
	l *Loader
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.l.ModulePath || strings.HasPrefix(path, m.l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, m.l.ModulePath), "/")
		pkg, err := m.l.loadDir(filepath.Join(m.l.ModuleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return m.l.std.Import(path)
}
