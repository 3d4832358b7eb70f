package analysis

import "fmt"

// StaleAllow returns the staleallow analyzer: the suppression audit that
// keeps the //janus:allow escape hatch honest. Every directive is a claim
// that some specific finding is intended; this analyzer reports the
// directives that suppressed nothing in the current run — the finding
// each silenced has been fixed (or the named check no longer runs in the
// package), so the comment is dead weight that would hide a future
// regression.
//
// The analyzer is framework-driven: suppression hits are only known after
// every other analyzer has run over the package, so RunAll performs the
// audit itself when (and only when) staleallow is part of the suite. Its
// findings are not themselves suppressible — a stale directive is fixed by
// deleting or rewriting the comment, not by stacking another one on top.
//
// A directive naming a check whose analyzer is absent from the running
// suite is skipped, not reported: a partial run (a single-analyzer fixture
// test, a scoped CLI invocation) cannot prove the suppression dead. The
// converse caveat cannot be detected: loading a single package still runs
// the interprocedural analyzers, but over a program missing their roots
// (a //janus:hotpath elsewhere, say), so a suppression that is load-bearing
// in the full ./... run can look unused. The audit's verdicts are only
// authoritative on whole-program runs — which is how CI invokes it.
func StaleAllow() *Analyzer {
	return &Analyzer{
		Name: "staleallow",
		// Run is nil: the audit needs every other analyzer's suppression
		// hits, so RunAll drives it after the per-package passes finish.
	}
}

// staleAllowDiags performs the post-run suppression audit for one package.
// It returns nothing unless the suite includes staleallow and it applies
// to the package.
func staleAllowDiags(pkg *Package, analyzers []*Analyzer, allows *allowIndex) []Diagnostic {
	var sa *Analyzer
	byName := map[string]*Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
		if a.Name == "staleallow" {
			sa = a
		}
	}
	if sa == nil || !sa.applies(pkg.Path) {
		return nil
	}
	var out []Diagnostic
	reportf := func(e *allowEntry, format string, args ...any) {
		out = append(out, Diagnostic{
			File:    e.file,
			Line:    e.line,
			Col:     e.col,
			Check:   "staleallow",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, e := range allows.entries {
		if e.used {
			continue
		}
		a := byName[e.check]
		if a == nil || e.check == "allow" || e.check == "staleallow" {
			// Absent from this suite (partial run) or not auditable:
			// cannot prove the suppression dead.
			continue
		}
		if !a.applies(pkg.Path) {
			reportf(e, "stale //janus:allow(%s): the %s check does not run in package %s; delete the directive", e.check, e.check, pkg.Path)
			continue
		}
		reportf(e, "stale //janus:allow(%s): it suppresses no finding; the issue it silenced is gone, delete the directive", e.check)
	}
	return out
}
