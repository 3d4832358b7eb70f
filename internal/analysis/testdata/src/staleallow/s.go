// Package staleallow is a januslint fixture for the suppression audit.
// The test runs the floatcmp and detrand analyzers (detrand scoped away
// from this package) together with staleallow; lines marked
// "want staleallow" carry directives the audit must report. A
// space-separated directive is not a directive at all: it is reported as
// malformed and the finding under it stands.
package staleallow

func live(a, b float64) int {
	if a == b { //janus:allow(floatcmp): fixture: exact comparison is intended
		return 0
	}
	return 1
}

func stale(a, b float64) float64 {
	//janus:allow(floatcmp): the comparison this silenced was rewritten // want staleallow
	return a + b
}

func spaceForm(a, b float64) int {
	if a != b { //janus:allow floatcmp the space form is malformed and suppresses nothing // want allow floatcmp
		return 1
	}
	return 0
}

func wrongScope() int {
	//janus:allow(detrand): detrand does not run here // want staleallow
	return 42
}
