package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// LayerRules is the checked-in architecture contract: every module
// package belongs to at most one named layer, and each layer declares
// which layers it may import. The production rules live in
// internal/analysis/layers.json at the module root; DESIGN.md mirrors the
// table.
type LayerRules struct {
	// Module is the module path; only imports under it are checked.
	Module string `json:"module"`
	// Layers lists the layers bottom-up. Packages are import-path
	// prefixes: "janus/internal/analysis" also covers its subpackages.
	Layers []Layer `json:"layers"`
	// Allow maps a layer to the other layers it may import. Imports
	// within one layer are always allowed.
	Allow map[string][]string `json:"allow"`
}

// Layer is one named stratum of the import DAG.
type Layer struct {
	Name     string   `json:"name"`
	Packages []string `json:"packages"`
}

// LoadLayerRules reads and validates a layers.json file.
func LoadLayerRules(path string) (*LayerRules, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("layercheck: %w", err)
	}
	var r LayerRules
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("layercheck: parsing %s: %w", path, err)
	}
	if r.Module == "" {
		return nil, fmt.Errorf("layercheck: %s: missing \"module\"", path)
	}
	names := map[string]bool{}
	for _, l := range r.Layers {
		if l.Name == "" || len(l.Packages) == 0 {
			return nil, fmt.Errorf("layercheck: %s: layer needs a name and packages", path)
		}
		if names[l.Name] {
			return nil, fmt.Errorf("layercheck: %s: duplicate layer %q", path, l.Name)
		}
		names[l.Name] = true
	}
	for from, tos := range r.Allow {
		if !names[from] {
			return nil, fmt.Errorf("layercheck: %s: allow rule for unknown layer %q", path, from)
		}
		for _, to := range tos {
			if !names[to] {
				return nil, fmt.Errorf("layercheck: %s: layer %q allows unknown layer %q", path, from, to)
			}
		}
	}
	if err := r.checkPackagesExist(path); err != nil {
		return nil, err
	}
	return &r, nil
}

// checkPackagesExist rejects layer entries naming packages that no longer
// exist on disk, so layers.json cannot drift as packages are renamed or
// deleted. The module root is located by walking up from the rules file;
// when the file lives outside its module (fixture files in a temp dir, a
// rules file for some other module) the check is skipped — existence can
// only be judged against the module tree the rules describe.
func (r *LayerRules) checkPackagesExist(path string) error {
	root, mod, err := findModule(filepath.Dir(path))
	if err != nil || mod != r.Module {
		return nil
	}
	for _, l := range r.Layers {
		for _, p := range l.Packages {
			rel, ok := strings.CutPrefix(p, r.Module+"/")
			if !ok {
				if p == r.Module {
					rel = "."
				} else {
					return fmt.Errorf("layercheck: %s: layer %q names package %q outside module %q", path, l.Name, p, r.Module)
				}
			}
			dir := filepath.Join(root, filepath.FromSlash(rel))
			entries, err := os.ReadDir(dir)
			if err != nil {
				return fmt.Errorf("layercheck: %s: layer %q names package %q but %s does not exist", path, l.Name, p, dir)
			}
			hasGo := false
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
					hasGo = true
					break
				}
			}
			if !hasGo {
				return fmt.Errorf("layercheck: %s: layer %q names package %q but %s contains no Go files", path, l.Name, p, dir)
			}
		}
	}
	return nil
}

// layerOf returns the layer owning the import path: the longest declared
// package prefix that matches on a path boundary, or "" for unlayered
// packages (cmd, examples, the module root).
func (r *LayerRules) layerOf(path string) string {
	best, bestLen := "", -1
	for _, l := range r.Layers {
		for _, p := range l.Packages {
			if (path == p || strings.HasPrefix(path, p+"/")) && len(p) > bestLen {
				best, bestLen = l.Name, len(p)
			}
		}
	}
	return best
}

func (r *LayerRules) allowed(from, to string) bool {
	for _, l := range r.Allow[from] {
		if l == to {
			return true
		}
	}
	return false
}

// LayerCheckWith returns the layercheck analyzer bound to explicit rules
// (used by tests; production code uses LayerCheck, which loads the
// checked-in layers.json).
func LayerCheckWith(rules *LayerRules) *Analyzer {
	a := &Analyzer{Name: "layercheck"}
	a.Run = func(pass *Pass) {
		runLayerCheck(pass, rules)
	}
	return a
}

// LayerCheck returns the layercheck analyzer, which enforces the
// package-import DAG declared in layers.json. Prepare loads the rules,
// before the per-package passes fan out, from internal/analysis/layers.json
// under the module root of the first package in import-path order. A
// missing or malformed file is itself a finding (the contract must exist
// for the check to mean anything), reported once, on that same package, so
// the finding does not depend on which pass the scheduler runs first.
func LayerCheck() *Analyzer {
	a := &Analyzer{Name: "layercheck"}
	var (
		rules   *LayerRules
		loadErr error
		errPkg  *Package // the package that carries loadErr's finding
	)
	a.Prepare = func(pkgs []*Package) {
		rules, loadErr, errPkg = nil, nil, nil
		for _, p := range pkgs {
			if len(p.Files) > 0 && (errPkg == nil || p.Path < errPkg.Path) {
				errPkg = p
			}
		}
		if errPkg == nil {
			return
		}
		root, _, err := findModule(errPkg.Dir)
		if err != nil {
			loadErr = err
			return
		}
		rules, loadErr = LoadLayerRules(filepath.Join(root, "internal", "analysis", "layers.json"))
	}
	a.Run = func(pass *Pass) {
		if loadErr != nil {
			if pass.Pkg == errPkg {
				pass.Reportf(pass.Pkg.Files[0].Package, "cannot load layer rules: %v", loadErr)
			}
			return
		}
		if rules != nil {
			runLayerCheck(pass, rules)
		}
	}
	return a
}

func runLayerCheck(pass *Pass, rules *LayerRules) {
	from := rules.layerOf(pass.Pkg.Path)
	if from == "" {
		return // unlayered packages (cmd, examples) may import anything
	}
	internalPrefix := rules.Module + "/internal/"
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != rules.Module && !strings.HasPrefix(path, rules.Module+"/") {
				continue // outside the module: stdlib etc.
			}
			to := rules.layerOf(path)
			if to == "" {
				if strings.HasPrefix(path, internalPrefix) {
					pass.Reportf(imp.Pos(),
						"import %s is not declared in layers.json: add it to a layer so the architecture contract stays total, or annotate //janus:allow(layercheck): <reason>",
						path)
				}
				continue
			}
			if to == from {
				continue
			}
			if !rules.allowed(from, to) {
				allowed := "none"
				if len(rules.Allow[from]) > 0 {
					allowed = strings.Join(rules.Allow[from], ", ")
				}
				pass.Reportf(imp.Pos(),
					"layer %s (package %s) must not import layer %s (%s): allowed layers are %s, or annotate //janus:allow(layercheck): <reason>",
					from, pass.Pkg.Path, to, path, allowed)
			}
		}
	}
}
