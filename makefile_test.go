package janus_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestSoakRunListsMatchTests holds every alternative of the -run lists in
// the Makefile's soak targets (chaos, crashsoak, fastsoak, deltadiff) to at
// least one test in the packages its command names. go test accepts a
// pattern that matches nothing, so a renamed test would otherwise drop out
// of its soak without a word.
func TestSoakRunListsMatchTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"chaos", "crashsoak", "fastsoak", "deltadiff"} {
		cmds := recipe(string(mk), target)
		if len(cmds) == 0 {
			t.Errorf("make %s: no go test command", target)
		}
		for _, cmd := range cmds {
			var pattern string
			var pkgs []string
			fields := strings.Fields(cmd)
			for i, f := range fields {
				switch {
				case f == "-run" && i+1 < len(fields):
					pattern = strings.Trim(fields[i+1], `'"`)
				case strings.HasPrefix(f, "./"):
					pkgs = append(pkgs, f)
				}
			}
			if pattern == "" || len(pkgs) == 0 {
				t.Errorf("make %s: %q names no -run list or no package", target, cmd)
				continue
			}
			names := testNames(t, pkgs)
			for _, alt := range alternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("make %s: -run alternative %q: %v", target, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("make %s: -run alternative %q matches no test in %v", target, alt, pkgs)
				}
			}
		}
	}
}

// recipe returns the go test commands of a Makefile target, with
// backslash-continued lines joined.
func recipe(mk, target string) []string {
	var cmds []string
	in, cur := false, ""
	for _, line := range strings.Split(mk, "\n") {
		if !in {
			in = strings.HasPrefix(line, target+":")
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break
		}
		cur += strings.TrimSuffix(strings.TrimSpace(line), `\`) + " "
		if strings.HasSuffix(line, `\`) {
			continue
		}
		if strings.Contains(cur, " test ") {
			cmds = append(cmds, cur)
		}
		cur = ""
	}
	return cmds
}

// alternatives splits a -run pattern's top-level test pattern (the part
// before its first unparenthesized /, which names subtests) at its
// unparenthesized |.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|', '/':
			if depth > 0 {
				continue
			}
			alts = append(alts, pattern[start:i])
			start = i + 1
			if c == '/' {
				return alts
			}
		}
	}
	return append(alts, pattern[start:])
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Example|Fuzz)\w*)\(`)

// testNames lists the tests, examples and fuzz targets declared in the
// packages' _test.go files.
func testNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no test files (%v)", pkg, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
	}
	return names
}
