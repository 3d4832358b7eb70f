package milp

import (
	"errors"
	"fmt"
	"math"
	"runtime"
)

// Validate rejects option values that previously were accepted silently and
// then misbehaved deep inside the search: negative node or stall limits
// (the loop guards never fire, so the search runs to exhaustion), negative
// or NaN gaps (every node "proves" optimality), negative time limits, and
// non-finite MIP-start values. Zero values are not errors — they mean
// "use the default" and are filled in by withDefaults.
func (o Options) Validate() error {
	var errs []error
	if o.MaxNodes < 0 {
		errs = append(errs, fmt.Errorf("MaxNodes = %d is negative", o.MaxNodes))
	}
	if o.TimeLimit < 0 {
		errs = append(errs, fmt.Errorf("TimeLimit = %v is negative", o.TimeLimit))
	}
	if o.RelGap < 0 || math.IsNaN(o.RelGap) {
		errs = append(errs, fmt.Errorf("RelGap = %v is not a valid tolerance", o.RelGap))
	}
	if o.StallNodes < 0 {
		errs = append(errs, fmt.Errorf("StallNodes = %d is negative", o.StallNodes))
	}
	if o.Workers < 0 {
		errs = append(errs, fmt.Errorf("Workers = %d is negative", o.Workers))
	}
	for v, val := range o.MIPStart {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			errs = append(errs, fmt.Errorf("MIPStart[%d] = %v is not finite", v, val))
		}
	}
	for v, p := range o.BranchPriority {
		if v < 0 {
			errs = append(errs, fmt.Errorf("BranchPriority has negative variable index %d (priority %d)", v, p))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("invalid options: %w", errors.Join(errs...))
}

// withDefaults fills zero values with the documented defaults. Callers must
// have passed Validate first; negative values are not repaired here.
func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.RelGap == 0 { //janus:allow(floatcmp): zero-value option sentinel meaning "unset", never a computed float
		o.RelGap = 1e-6
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}
