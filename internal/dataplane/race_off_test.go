//go:build !race

package dataplane_test

const raceEnabled = false
