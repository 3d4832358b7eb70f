// Command januslint runs Janus's project-specific static-analysis suite
// (internal/analysis) over package patterns, ./... by default.
//
//	go run ./cmd/januslint ./...
//
// The default suite registers twelve analyzers: the syntactic checks
// floatcmp, detrand, lockcheck, and errdrop; the CFG-backed deferloop
// (built on internal/analysis/cfg); the SSA-backed nilness and deadstore
// (built on internal/analysis/ssa); layercheck, which enforces the import
// DAG declared in internal/analysis/layers.json; the interprocedural
// lockorder, hotalloc, and ctxleak, which share one whole-program call
// graph (internal/analysis/callgraph) spanning every loaded package; and
// staleallow, which audits the suppression comments themselves. Copying a
// mutex is left to go vet's copylocks check.
//
// It understands plain directories and the /... recursive suffix, prints
// file:line:col: [check] message findings (or a SARIF 2.1.0 log with
// -sarif, for CI code-scanning upload), and exits 1 when any finding
// survives suppression, 2 on load errors. Findings are suppressed with
// //janus:allow(check): reason on the offending line or the line above;
// see internal/analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"janus/internal/analysis"
)

func main() {
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: januslint [-sarif] [packages]\n\npackages are directories, optionally with a /... suffix (default ./...)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
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
	analyzers := analysis.Default()
	diags := analysis.RunAll(pkgs, analyzers)

	if *sarifOut {
		log, err := analysis.SARIF(analyzers, diags, loader.ModuleRoot())
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(append(log, '\n')); err != nil {
			fatal(err)
		}
	} else {
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
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "januslint:", err)
	os.Exit(2)
}
