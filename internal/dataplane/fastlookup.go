package dataplane

import (
	"time"

	"janus/internal/fastpath"
	"janus/internal/policy"
)

// This file hosts the compiled fast-path holder on Network. The interpreted
// Lookup (dataplane.go) stays the semantic reference — audits and the
// differential fuzzer use it — while steady-state flow arrivals go through
// the compiled structure published here.
//
// Swap protocol: writers (Apply / ApplyPlan+RollbackPlan callers, i.e. the
// runtime's install path) call Recompile after the rule set settles; the
// compile runs off to the side against the settled tables and is published
// with a single atomic pointer store. Readers load the pointer once per
// lookup and keep using that generation even if a swap lands mid-call —
// every observed result is therefore consistent with the pre- or post-swap
// rule set, never a torn mix. Mid-plan states (between ApplyPhase calls)
// are intentionally NOT compiled: the fast path always serves the last
// settled configuration.

// AllRules returns every installed rule, unordered. Writer-side only: it
// iterates the live tables without synchronization.
func (n *Network) AllRules() []Rule {
	out := make([]Rule, 0, n.RuleCount())
	for id, sw := range n.switches {
		out = sw.Table.appendRules(out, id)
	}
	return out
}

// Recompile rebuilds the compiled fast path from the currently installed
// tables and publishes it atomically under the next generation number.
// Must be called from the writer (mutation-serialized) side, at points
// where the rule set is settled — after a successful Apply/ApplyPlan or
// after a RollbackPlan restored the previous configuration.
func (n *Network) Recompile() *fastpath.Compiled {
	frules := make([]fastpath.Rule, 0, n.RuleCount())
	for id, sw := range n.switches {
		for k, ss := range sw.Table.flows {
			for i := range ss {
				s := &ss[i]
				frules = append(frules, fastpath.Rule{
					Switch: id, Src: k.src, Dst: k.dst, Match: s.Match,
					NextHop: s.NextHop, InPort: s.InPort, Priority: s.Priority,
				})
			}
		}
	}
	gen := n.fastGen.Add(1)
	start := time.Now()
	c := fastpath.Compile(n.topo, frules, gen)
	elapsed := time.Since(start)
	n.fast.Store(c)
	n.fastCompiles.Add(1)
	n.fastCompileNanos.Add(int64(elapsed))
	n.fastLastNanos.Store(int64(elapsed))
	if n.fastObserver != nil {
		n.fastObserver(gen, n.AllRules())
	}
	return c
}

// Fastpath returns the current compiled structure, or nil before the first
// Recompile. Safe from any goroutine.
func (n *Network) Fastpath() *fastpath.Compiled { return n.fast.Load() }

// SetRecompileObserver installs a hook invoked by every Recompile with the
// new generation and the exact rules it compiled (the slice is freshly
// allocated per call and safe to retain). Writer-side only; pass nil to
// clear. Test instrumentation for the swap-under-load soak.
func (n *Network) SetRecompileObserver(fn func(gen uint64, rules []Rule)) {
	n.fastObserver = fn
}

// FastLookup classifies a flow through the compiled fast path, falling
// back to the interpreted walk only before the first Recompile. Safe from
// any number of goroutines concurrently with writer-side swaps (the
// fallback is NOT: it reads live tables, so concurrent readers should only
// arrive after an initial compile — the runtime compiles during bring-up).
//
//janus:hotpath
func (n *Network) FastLookup(src, dst string, proto policy.Protocol, port int) (fastpath.Path, error) {
	if c := n.fast.Load(); c != nil {
		return c.Lookup(src, dst, proto, port)
	}
	w, err := n.Lookup(src, dst, proto, port)
	return fastpath.Path(w), err
}

// FastpathStats is the /metrics view of the compiled fast path.
type FastpathStats struct {
	// Generation is the current compiled generation (0 = never compiled).
	Generation uint64 `json:"generation"`
	// Compiles counts Recompile calls.
	Compiles uint64 `json:"compiles"`
	// Flows / Endpoints / Outcomes describe the current structure.
	Flows     int `json:"flows"`
	Endpoints int `json:"endpoints"`
	Outcomes  int `json:"outcomes"`
	// LastCompileMicros / TotalCompileMicros are compile-time costs.
	LastCompileMicros  float64 `json:"lastCompileMicros"`
	TotalCompileMicros float64 `json:"totalCompileMicros"`
}

// FastpathStats returns the compile counters and the dimensions of the
// currently published structure. Safe from any goroutine.
func (n *Network) FastpathStats() FastpathStats {
	s := FastpathStats{
		Compiles:           n.fastCompiles.Load(),
		LastCompileMicros:  float64(n.fastLastNanos.Load()) / 1e3,
		TotalCompileMicros: float64(n.fastCompileNanos.Load()) / 1e3,
	}
	if c := n.fast.Load(); c != nil {
		s.Generation = c.Generation()
		s.Flows = c.Flows()
		s.Endpoints = c.Endpoints()
		s.Outcomes = c.Outcomes()
	}
	return s
}
