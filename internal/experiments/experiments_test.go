package experiments

import (
	"strings"
	"testing"
	"time"
)

// tiny returns parameters small enough for unit tests.
func tiny() Params {
	return Params{Scale: 0.3, Seed: 1, Runs: 1, TimeLimit: 10 * time.Second}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"a", "longer"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "longer") {
		t.Errorf("rendered table missing parts:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows -> 5? title+header+sep+2 = 5
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d:\n%s", len(lines), s)
		}
	}
}

func TestFindExperiments(t *testing.T) {
	for _, e := range All {
		got, ok := Find(e.Name)
		if !ok || got.Name != e.Name {
			t.Errorf("Find(%s) failed", e.Name)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) should fail")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Scale != 1 || p.Runs != 1 || p.TimeLimit == 0 {
		t.Errorf("defaults wrong: %+v", p)
	}
	if got := (Params{Scale: 0.1}).withDefaults().scaled(10); got != 1 {
		t.Errorf("scaled(10) at 0.1 = %d, want 1", got)
	}
}

// Each experiment must run end to end at tiny scale and produce
// well-formed tables. These are smoke tests; EXPERIMENTS.md captures the
// quantitative comparison at larger scale.

func runExp(t *testing.T, name string) []Table {
	t.Helper()
	e, ok := Find(name)
	if !ok {
		t.Fatalf("experiment %s missing", name)
	}
	tables, err := e.Run(tiny())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", name)
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: table %q has no rows", name, tb.Title)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s: row width %d != header width %d", name, len(row), len(tb.Header))
			}
		}
	}
	return tables
}

func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := runExp(t, "fig11")
	if len(tables) != len(figTopos) {
		t.Errorf("fig11: %d tables, want %d", len(tables), len(figTopos))
	}
}

func TestFig13GapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := runExp(t, "fig13")
	// Gap cells are percentages; sanity: parseable and within [0, 100].
	for _, row := range tables[0].Rows {
		for _, cell := range row[1:] {
			if !strings.HasSuffix(cell, "%") {
				t.Errorf("gap cell %q not a percentage", cell)
			}
		}
	}
}

func TestTable34Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t3, t4, err := table34(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != len(tableTopos) || len(t4.Rows) != len(tableTopos) {
		t.Errorf("table3 rows = %d, table4 rows = %d, want %d", len(t3.Rows), len(t4.Rows), len(tableTopos))
	}
}

func TestFig14Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := runExp(t, "fig14")
	// Zero endpoint changes must give zero path changes (first row).
	first := tables[0].Rows[0]
	if first[0] != "0" {
		t.Fatalf("first sweep point should be 0 changes, got %s", first[0])
	}
	if first[1] != "0" {
		t.Errorf("0 endpoint changes produced %s path changes, want 0", first[1])
	}
}

func TestFig15Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runExp(t, "fig15")
}

func TestTable5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runExp(t, "table5")
}

func TestFig16Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runExp(t, "fig16")
}

func TestFig17Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := runExp(t, "fig17")
	if len(tables) != 2 {
		t.Errorf("fig17: %d tables, want 2 (N sweep, K sweep)", len(tables))
	}
}
