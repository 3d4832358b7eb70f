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

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path (derived from its directory's
	// position under the module root).
	Path string
	// Dir is the package's directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files only, parsed with comments
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of one module entirely from source
// using only the standard library: module-local imports are resolved by
// mapping the import path onto a directory under the module root, and
// everything else (the standard library) goes through the go/importer
// source importer. Loaded packages are cached, so one Loader amortizes the
// cost of type-checking shared dependencies across many targets.
//
// Loading is serial: a package's module-local dependencies type-check on
// demand through ImportFrom, recursively, before the package itself. A
// Loader is not safe for concurrent use.
type Loader struct {
	fset    *token.FileSet
	modPath string
	modRoot string
	std     types.ImporterFrom
	// pkgs caches every load by import path. A path maps to nil while its
	// load is in progress, so meeting it again means the imports loop.
	pkgs map[string]*loaded
}

type loaded struct {
	pkg *Package
	err error
}

// NewLoader builds a Loader for the module rooted at (or above) dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{
		fset:    fset,
		modPath: modPath,
		modRoot: root,
		std:     std,
		pkgs:    map[string]*loaded{},
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the module
// root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-local packages load from
// their directory, everything else falls through to the source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := l.moduleRel(path); ok {
		p, err := l.load(path, filepath.Join(l.modRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.modRoot, 0)
}

// moduleRel reports whether path is inside the module, returning the
// slash-separated path relative to the module root.
func (l *Loader) moduleRel(path string) (string, bool) {
	if path == l.modPath {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return rest, true
	}
	return "", false
}

// LoadDir loads and type-checks the package in dir.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, abs, err := l.dirPath(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

// dirPath resolves a directory to its import path and absolute location.
func (l *Loader) dirPath(dir string) (path, abs string, err error) {
	abs, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	path = abs
	if rel, err := filepath.Rel(l.modRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			path = l.modPath
		} else {
			path = l.modPath + "/" + filepath.ToSlash(rel)
		}
	}
	return path, abs, nil
}

// load returns the package for path, loading it on first request.
func (l *Loader) load(path, dir string) (*Package, error) {
	if r, ok := l.pkgs[path]; ok {
		if r == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return r.pkg, r.err
	}
	l.pkgs[path] = nil
	pkg, err := l.parseAndCheck(path, dir)
	l.pkgs[path] = &loaded{pkg, err}
	return pkg, err
}

// goFileNames lists the non-test Go files of dir in name order.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	return names, nil
}

// parseAndCheck parses the non-test Go files of dir, with comments, and
// type-checks them as one package.
func (l *Loader) parseAndCheck(path, dir string) (*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// walkGoDirs returns every directory under root holding non-test Go files,
// skipping testdata, hidden, and underscore-prefixed directories, in
// sorted order.
func walkGoDirs(root string) ([]string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	seen := map[string]bool{}
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") && !strings.HasPrefix(d.Name(), ".") {
			// Subdirectories interleave with files in WalkDir's lexical
			// order, so a last-element check is not enough to dedup.
			dir := filepath.Dir(path)
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadTree loads every package under root (recursively), skipping testdata,
// hidden, and underscore-prefixed directories. Results are sorted by import
// path. Module-local dependencies outside the tree load on demand through
// the importer, exactly once.
func (l *Loader) LoadTree(root string) ([]*Package, error) {
	dirs, err := walkGoDirs(root)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
