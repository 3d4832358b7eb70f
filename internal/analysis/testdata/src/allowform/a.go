// Package allowform is a januslint fixture for the //janus:allow comment
// form itself: a directive without a reason, a directive naming an
// unknown check, and a space-separated directive are all reported under
// the "allow" check.
package allowform

func f(x float64) float64 {
	if x == 0 { //janus:allow(floatcmp):
		return 1
	}
	if x == 1 { //janus:allow(nosuchcheck): the check name does not exist
		return 2
	}
	if x == 2 { //janus:allow floatcmp the space form names no checks
		return 3
	}
	return x
}
