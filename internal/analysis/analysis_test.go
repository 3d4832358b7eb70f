package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	p, err := newTestLoader(t).LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wantComments extracts "// want <check>..." expectations from the fixture,
// keyed by file:line. The marker may sit mid-comment so a //janus:allow
// directive (whose reason runs to the end of the line) can still carry an
// expectation — the staleallow fixture needs exactly that.
func wantComments(p *Package) map[string][]string {
	want := map[string][]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				rest := c.Text[i+len("// want "):]
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				want[key] = append(want[key], strings.Fields(rest)...)
			}
		}
	}
	return want
}

// checkFixture runs the analyzer over its fixture and diffs findings
// against the want comments.
func checkFixture(t *testing.T, name string, a *Analyzer) []Diagnostic {
	t.Helper()
	p := loadFixture(t, name)
	diags := Run(p, []*Analyzer{a})
	diffDiags(t, wantComments(p), diags)
	return diags
}

// diffDiags matches diagnostics against want-comment expectations, reporting
// both unexpected and missing findings.
func diffDiags(t *testing.T, want map[string][]string, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		checks := want[key]
		i := -1
		for j, c := range checks {
			if c == d.Check {
				i = j
				break
			}
		}
		if i < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		want[key] = append(checks[:i], checks[i+1:]...)
	}
	for key, checks := range want {
		for _, c := range checks {
			t.Errorf("missing diagnostic %q at %s", c, key)
		}
	}
}

func TestFloatCmpFixture(t *testing.T) { checkFixture(t, "floatcmp", FloatCmp()) }
func TestDetRandFixture(t *testing.T)  { checkFixture(t, "detrand", DetRand()) }
func TestErrDropFixture(t *testing.T)  { checkFixture(t, "errdrop", ErrDrop()) }

func TestLockOrderFixture(t *testing.T) { checkFixture(t, "lockorder", LockOrder()) }

// TestLockCheckFixture checks lockorder's guard rule on its own fixture.
func TestLockCheckFixture(t *testing.T) { checkFixture(t, "lockcheck", LockOrder()) }

func TestHotAllocFixture(t *testing.T) { checkFixture(t, "hotalloc", HotAlloc()) }
func TestCtxLeakFixture(t *testing.T)  { checkFixture(t, "ctxleak", CtxLeak()) }

// TestCtxLeakIPFixture runs ctxleak over goroutines whose blocking
// operation sits behind one or more calls.
func TestCtxLeakIPFixture(t *testing.T) { checkFixture(t, "ctxleakip", CtxLeak()) }

func TestDeadStoreFixture(t *testing.T) { checkFixture(t, "deadstore", DeadStore()) }

// staleAllowFixtureSuite is the analyzer set the staleallow fixture is
// written against: floatcmp (whose directives exercise used and stale
// suppressions, and a malformed space-form one), detrand scoped away from the fixture package (so a
// directive naming it is reported as out-of-scope), and the audit itself.
func staleAllowFixtureSuite() []*Analyzer {
	dr := DetRand()
	dr.Paths = []string{"internal/server"}
	return []*Analyzer{FloatCmp(), dr, StaleAllow()}
}

// TestStaleAllowFixture runs the audit in a multi-analyzer suite: only
// there does "suppressed nothing" have meaning.
func TestStaleAllowFixture(t *testing.T) {
	p := loadFixture(t, "staleallow")
	diags := Run(p, staleAllowFixtureSuite())
	diffDiags(t, wantComments(p), diags)
}

// layercheckFixtureRules layers the fixture tree the way layers.json layers
// production code: lp is the bottom solver layer (imports nothing), server
// sits on top of core, and stray is deliberately unlayered.
func layercheckFixtureRules() *LayerRules {
	const pfx = "janus/internal/analysis/testdata/src/layercheck"
	return &LayerRules{
		Module: "janus",
		Layers: []Layer{
			{Name: "solver", Packages: []string{pfx + "/lp"}},
			{Name: "core", Packages: []string{pfx + "/core"}},
			{Name: "server", Packages: []string{pfx + "/server"}},
		},
		Allow: map[string][]string{
			"solver": {},
			"core":   {},
			"server": {"core"},
		},
	}
}

// layercheckFixtureDiags runs layercheck with fixture rules over every
// package of the layercheck fixture tree, in package order.
func layercheckFixtureDiags(t *testing.T) (map[string][]string, []Diagnostic) {
	t.Helper()
	pkgs, err := newTestLoader(t).LoadTree(filepath.Join("testdata", "src", "layercheck"))
	if err != nil {
		t.Fatal(err)
	}
	a := LayerCheckWith(layercheckFixtureRules())
	want := map[string][]string{}
	var diags []Diagnostic
	for _, p := range pkgs {
		for key, checks := range wantComments(p) {
			want[key] = append(want[key], checks...)
		}
		diags = append(diags, Run(p, []*Analyzer{a})...)
	}
	return want, diags
}

// TestLayerCheckFixture exercises both finding kinds — a forbidden layer
// edge and an import missing from the rules — plus suppression.
func TestLayerCheckFixture(t *testing.T) {
	want, diags := layercheckFixtureDiags(t)
	diffDiags(t, want, diags)
}

// TestGolden locks the exact rendered output of each fixture against a
// checked-in golden file (rerun with UPDATE_GOLDEN=1 to regenerate).
func TestGolden(t *testing.T) {
	cases := []struct {
		name  string
		diags func(t *testing.T) []Diagnostic
	}{
		{"floatcmp", func(t *testing.T) []Diagnostic {
			return Run(loadFixture(t, "floatcmp"), []*Analyzer{FloatCmp()})
		}},
		{"ctxleak", func(t *testing.T) []Diagnostic {
			return Run(loadFixture(t, "ctxleak"), []*Analyzer{CtxLeak()})
		}},
		{"layercheck", func(t *testing.T) []Diagnostic {
			_, diags := layercheckFixtureDiags(t)
			return diags
		}},
		{"lockorder", func(t *testing.T) []Diagnostic {
			return Run(loadFixture(t, "lockorder"), []*Analyzer{LockOrder()})
		}},
		{"lockcheck", func(t *testing.T) []Diagnostic {
			return Run(loadFixture(t, "lockcheck"), []*Analyzer{LockOrder()})
		}},
		{"hotalloc", func(t *testing.T) []Diagnostic {
			return Run(loadFixture(t, "hotalloc"), []*Analyzer{HotAlloc()})
		}},
		{"ctxleakip", func(t *testing.T) []Diagnostic {
			return Run(loadFixture(t, "ctxleakip"), []*Analyzer{CtxLeak()})
		}},
		{"deadstore", func(t *testing.T) []Diagnostic {
			return Run(loadFixture(t, "deadstore"), []*Analyzer{DeadStore()})
		}},
		{"staleallow", func(t *testing.T) []Diagnostic {
			return Run(loadFixture(t, "staleallow"), staleAllowFixtureSuite())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			for _, d := range tc.diags(t) {
				if i := strings.Index(d.File, "testdata"); i >= 0 {
					d.File = filepath.ToSlash(d.File[i:])
				}
				fmt.Fprintf(&b, "%s\n", d)
			}
			goldenPath := filepath.Join("testdata", tc.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(golden) {
				t.Errorf("golden mismatch (rerun with UPDATE_GOLDEN=1 if intended)\ngot:\n%s\nwant:\n%s", got, golden)
			}
		})
	}
}

// TestAllowForm verifies that malformed //janus:allow directives are
// themselves reported: a missing reason, an unknown check name, and the
// space-separated form, and that the last two do not suppress anything.
func TestAllowForm(t *testing.T) {
	p := loadFixture(t, "allowform")
	diags := Run(p, []*Analyzer{FloatCmp()})
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Check]++
	}
	// Three allow findings (missing reason, unknown check, space form) plus
	// the floatcmp findings the last two failed to suppress.
	if counts["allow"] != 3 || counts["floatcmp"] != 2 || len(diags) != 5 {
		t.Errorf("diagnostics = %v, want 3 allow + 2 floatcmp", diags)
	}
}

// TestAllowSpaceForm pins the retired "//janus:allow check reason" form:
// on its line it yields exactly one malformed-directive finding, and the
// floatcmp finding it names stays in place.
func TestAllowSpaceForm(t *testing.T) {
	p := loadFixture(t, "allowform")
	line := 0
	for _, cg := range p.Files[0].Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//janus:allow floatcmp") {
				line = p.Fset.Position(c.Pos()).Line
			}
		}
	}
	if line == 0 {
		t.Fatal("fixture has no space-form directive")
	}
	var got []string
	for _, d := range Run(p, []*Analyzer{FloatCmp()}) {
		if d.Line == line {
			got = append(got, d.Check)
		}
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "allow,floatcmp" {
		t.Errorf("findings on line %d = %v, want [allow floatcmp]", line, got)
	}
}

// TestLoaderModulePackage proves module-local import resolution: loading
// internal/lp pulls the package in by its module import path.
func TestLoaderModulePackage(t *testing.T) {
	l := newTestLoader(t)
	p, err := l.LoadDir(filepath.Join(l.modRoot, "internal", "lp"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Types.Name() != "lp" {
		t.Errorf("package name = %q, want lp", p.Types.Name())
	}
	if p.Path != "janus/internal/lp" {
		t.Errorf("import path = %q, want janus/internal/lp", p.Path)
	}
}

// TestLoadTree loads every fixture package in one sweep and checks the
// result is sorted and complete.
func TestLoadTree(t *testing.T) {
	pkgs, err := newTestLoader(t).LoadTree(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range pkgs {
		names = append(names, p.Types.Name())
	}
	want := []string{
		"allowform", "ctxleak", "ctxleakip", "deadstore", "detrand",
		"errdrop", "floatcmp", "hotalloc",
		"core", "lp", "server", "stray", // layercheck/* in import-path order
		"lockcheck", "lockorder", "staleallow",
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("LoadTree packages = %v, want %v", names, want)
	}
}

// TestLoadTreeImportCycle proves the serial loader reports an import cycle
// among module-local packages instead of recursing forever.
func TestLoadTreeImportCycle(t *testing.T) {
	mod := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		full := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module cyc\n\ngo 1.22\n")
	write("a/a.go", "package a\n\nimport \"cyc/b\"\n\nvar X = b.Y\n")
	write("b/b.go", "package b\n\nimport \"cyc/a\"\n\nvar Y = 1\n\nvar _ = a.X\n")
	l, err := NewLoader(mod)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadTree(mod)
	if err == nil || !strings.Contains(err.Error(), "import cycle through") {
		t.Fatalf("LoadTree error = %v, want an import cycle", err)
	}
}

// TestDefaultScoping verifies the production path restrictions: floatcmp
// must not fire outside the solver packages, detrand never outside
// internal/, ctxleak only in the long-lived layers, and the rest
// everywhere.
func TestDefaultScoping(t *testing.T) {
	suite := Default()
	if len(suite) != 9 {
		t.Fatalf("Default() has %d analyzers, want 9", len(suite))
	}
	seen := map[string]bool{}
	for _, a := range suite {
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		switch a.Name {
		case "floatcmp":
			if a.applies("janus/internal/server") {
				t.Error("floatcmp should not apply to internal/server")
			}
			if !a.applies("janus/internal/lp") {
				t.Error("floatcmp should apply to internal/lp")
			}
		case "detrand":
			if a.applies("janus/cmd/janus") {
				t.Error("detrand should not apply to cmd/janus")
			}
			if !a.applies("janus/internal/paths") {
				t.Error("detrand should apply to internal/paths")
			}
		case "ctxleak":
			if a.applies("janus/internal/lp") {
				t.Error("ctxleak should not apply to internal/lp")
			}
			if !a.applies("janus/internal/server") || !a.applies("janus/internal/runtime") ||
				!a.applies("janus/internal/dataplane") {
				t.Error("ctxleak should apply to internal/server, internal/runtime and internal/dataplane")
			}
		case "errdrop", "layercheck", "lockorder",
			"hotalloc", "deadstore", "staleallow":
			if !a.applies("janus/cmd/janus") || !a.applies("janus/internal/server") {
				t.Errorf("%s should apply everywhere", a.Name)
			}
		}
	}
}

// renderDiags joins diagnostics into the exact byte stream the CLI would
// print, for whole-output comparisons.
func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s\n", d)
	}
	return b.String()
}

// TestRunAllDeterminism is the scheduling-shuffle regression test: RunAll
// analyzes packages on a worker pool, so its output must be byte-identical
// across repeated runs and across any permutation of the input package
// order. Each iteration rotates and reverses the package list to exercise
// different orderings without randomness.
func TestRunAllDeterminism(t *testing.T) {
	pkgs, err := newTestLoader(t).LoadTree(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	suite := func() []*Analyzer {
		dr := DetRand()
		dr.Paths = []string{"internal/server"}
		return []*Analyzer{
			FloatCmp(), dr, ErrDrop(),
			LockOrder(), HotAlloc(), CtxLeak(),
			DeadStore(), StaleAllow(),
		}
	}
	base := renderDiags(RunAll(pkgs, suite()))
	if base == "" {
		t.Fatal("fixture tree produced no diagnostics; determinism test is vacuous")
	}
	for i := 1; i <= 4; i++ {
		perm := make([]*Package, len(pkgs))
		copy(perm, pkgs[i:])
		copy(perm[len(pkgs)-i:], pkgs[:i]) // rotate by i
		if i%2 == 0 {                      // and reverse every other round
			for l, r := 0, len(perm)-1; l < r; l, r = l+1, r-1 {
				perm[l], perm[r] = perm[r], perm[l]
			}
		}
		if got := renderDiags(RunAll(perm, suite())); got != base {
			t.Fatalf("RunAll output depends on package order (permutation %d):\ngot:\n%s\nwant:\n%s", i, got, base)
		}
	}
}

// TestLoadLayerRules validates both the checked-in production layers.json
// and the validation errors for malformed rule files.
func TestLoadLayerRules(t *testing.T) {
	rules, err := LoadLayerRules("layers.json")
	if err != nil {
		t.Fatalf("production layers.json must load: %v", err)
	}
	if rules.Module != "janus" {
		t.Errorf("module = %q, want janus", rules.Module)
	}
	if got := rules.layerOf("janus/internal/lp"); got != "solver" {
		t.Errorf("layerOf(internal/lp) = %q, want solver", got)
	}
	if got := rules.layerOf("janus/internal/lp/simplex"); got != "solver" {
		t.Errorf("layerOf(internal/lp/simplex) = %q, want solver (prefix match)", got)
	}
	if got := rules.layerOf("janus/internal/lpx"); got != "" {
		t.Errorf("layerOf(internal/lpx) = %q, want \"\" (no partial-segment match)", got)
	}
	if got := rules.layerOf("janus/cmd/janusd"); got != "" {
		t.Errorf("layerOf(cmd/janusd) = %q, want unlayered", got)
	}
	if !rules.allowed("server", "engine") || rules.allowed("solver", "server") {
		t.Error("allow table does not match layers.json")
	}

	bad := map[string]string{
		"missing-module.json": `{"layers":[{"name":"a","packages":["m/a"]}]}`,
		"dup-layer.json":      `{"module":"m","layers":[{"name":"a","packages":["m/a"]},{"name":"a","packages":["m/b"]}]}`,
		"unknown-allow.json":  `{"module":"m","layers":[{"name":"a","packages":["m/a"]}],"allow":{"a":["ghost"]}}`,
	}
	dir := t.TempDir()
	for name, content := range bad {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadLayerRules(path); err == nil {
			t.Errorf("LoadLayerRules(%s) should fail", name)
		}
	}
	if _, err := LoadLayerRules(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("LoadLayerRules on a missing file should fail")
	}

	// Entries for packages that no longer exist on disk must be rejected:
	// build a miniature module with one real package and point rule files
	// at it.
	mod := t.TempDir()
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(mod, "a"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mod, "a", "a.go"), []byte("package a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(mod, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(mod, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json", `{"module":"m","layers":[{"name":"a","packages":["m/a"]}]}`)
	if _, err := LoadLayerRules(good); err != nil {
		t.Errorf("rules naming an existing package must load: %v", err)
	}
	ghost := write("ghost.json", `{"module":"m","layers":[{"name":"a","packages":["m/a"]},{"name":"b","packages":["m/gone"]}]}`)
	if _, err := LoadLayerRules(ghost); err == nil {
		t.Error("rules naming a package with no directory on disk should fail")
	}
	hollow := write("hollow.json", `{"module":"m","layers":[{"name":"a","packages":["m/empty"]}]}`)
	if _, err := LoadLayerRules(hollow); err == nil {
		t.Error("rules naming a directory with no Go files should fail")
	}
	foreign := write("foreign.json", `{"module":"other","layers":[{"name":"a","packages":["other/ghost"]}]}`)
	if _, err := LoadLayerRules(foreign); err != nil {
		t.Errorf("existence check must be skipped for rules describing another module: %v", err)
	}
}

// TestLayerCheckMissingRulesReportedOnce runs the production layercheck
// over a module with no layers.json. The load error must be one finding,
// on the first package in import-path order, whatever order the packages
// arrive in and whichever per-package pass runs first; under -race the
// per-package passes must not share any unsynchronized state.
func TestLayerCheckMissingRulesReportedOnce(t *testing.T) {
	mod := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		full := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module norules\n\ngo 1.22\n")
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, n := range names {
		write(filepath.Join(n, n+".go"), "package "+n+"\n\nvar X = 1\n")
	}
	l, err := NewLoader(mod)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadTree(mod)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(names) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(names))
	}
	run := func(order []*Package) []string {
		var got []string
		for _, d := range RunAll(order, []*Analyzer{LayerCheck()}) {
			got = append(got, fmt.Sprintf("%s:%d [%s] %s", filepath.Base(filepath.Dir(d.File)), d.Line, d.Check, d.Message))
		}
		return got
	}
	reversed := make([]*Package, len(pkgs))
	for i, p := range pkgs {
		reversed[len(pkgs)-1-i] = p
	}
	rotated := append(append([]*Package(nil), pkgs[3:]...), pkgs[:3]...)
	want := run(pkgs)
	if len(want) != 1 || !strings.HasPrefix(want[0], "a:1 [layercheck] cannot load layer rules") {
		t.Fatalf("findings = %q, want one layer-rules load error on package a", want)
	}
	for _, order := range [][]*Package{reversed, rotated, pkgs} {
		if got := run(order); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("findings = %q, want %q", got, want)
		}
	}
}
