//go:build race

package runtime

// raceEnabled reports that this binary was built with -race, under which
// the audited installs of a long event stream take minutes rather than
// seconds.
const raceEnabled = true
