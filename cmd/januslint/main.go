// Command januslint runs Janus's project-specific static-analysis suite
// (internal/analysis) over package patterns, ./... by default.
//
//	go run ./cmd/januslint ./...
//
// The default suite registers nine analyzers: the syntactic checks
// floatcmp, detrand, and errdrop; layercheck, which enforces the import
// DAG declared in internal/analysis/layers.json; the SSA-backed deadstore
// (built on internal/analysis/ssa); the interprocedural lockorder,
// hotalloc, and ctxleak, which share one whole-program call graph
// (internal/analysis/callgraph) spanning every loaded package; and
// staleallow, which audits the suppression comments themselves. Copying a
// mutex is left to go vet's copylocks check.
//
// It takes no flags. It understands plain directories and the /...
// recursive suffix, prints file:line:col: [check] message findings, and
// exits 1 when any finding survives suppression, 2 on load errors.
// Findings are suppressed with //janus:allow(check): reason on the
// offending line or the line above; see internal/analysis.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"janus/internal/analysis"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	var pkgs []*analysis.Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		var batch []*analysis.Package
		if root, ok := strings.CutSuffix(pat, "/..."); ok {
			if root == "" {
				root = "."
			}
			batch, err = loader.LoadTree(root)
		} else {
			var p *analysis.Package
			p, err = loader.LoadDir(pat)
			batch = []*analysis.Package{p}
		}
		if err != nil {
			fatal(err)
		}
		for _, p := range batch {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	diags := analysis.RunAll(pkgs, analysis.Default())

	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.File); err == nil && !strings.HasPrefix(rel, "..") {
				d.File = rel
			}
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "januslint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "januslint:", err)
	os.Exit(2)
}
