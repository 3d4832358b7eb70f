package main

import (
	"time"

	"janus/internal/store"
)

// degradedTiers are the core.DegradationTier names below a normal solve.
var degradedTiers = []string{"lp-round", "keep-previous", "none"}

// ledger turns the three sections of a traced run into the per-layer
// metrics. Counts are differences of the program's own counters over the
// untraced section a (section b where the workload has no HTTP form);
// times come from the spans of the traced section c.
func ledger(spec workloadSpec, a, b, c section, spans []span, traced *direct, recovery store.RecoveryInfo) map[string]float64 {
	v := map[string]float64{}
	for name, x := range traced.shots {
		v[name] = x
	}

	// Counters, over section a.
	m0, m1 := a.before, a.after
	d := func(after, before int) float64 { return float64(after - before) }
	reconf := d(m1.Reconfigurations, m0.Reconfigurations)
	deltas, fallbacks := d(m1.DeltaSolves, m0.DeltaSolves), d(m1.DeltaFallbacks, m0.DeltaFallbacks)
	nodes := d(m1.SolverNodes, m0.SolverNodes)
	events := float64(len(a.loop.Events))
	v["runtime.reconfigurations"] = reconf
	v["runtime.delta_solves"] = deltas
	v["runtime.delta_fallbacks"] = fallbacks
	v["runtime.fallback_frac"] = ratio(fallbacks, deltas+fallbacks)
	v["runtime.delta_affected_mean"] = ratio(d(m1.DeltaAffectedPolicies, m0.DeltaAffectedPolicies), deltas)
	v["runtime.path_changes_per_event"] = ratio(d(m1.PathChanges, m0.PathChanges), reconf)
	v["runtime.apply_retries"] = d(m1.ApplyRetries, m0.ApplyRetries)
	v["runtime.audit_rollbacks"] = d(m1.AuditRollbacks, m0.AuditRollbacks)
	for _, tier := range degradedTiers {
		v["runtime.tier_degraded"] += d(m1.TierCounts[tier], m0.TierCounts[tier])
	}
	v["milp.nodes_per_solve"] = ratio(nodes, reconf)
	v["milp.workers"] = float64(m1.SolverWorkers)
	v["lp.iterations_per_node"] = ratio(d(m1.SolverLPIterations, m0.SolverLPIterations), nodes)
	v["lp.refactorizations_per_solve"] = ratio(d(m1.SolverRefactorizations, m0.SolverRefactorizations), reconf)
	v["lp.pricing_switches"] = d(m1.SolverPricingSwitches, m0.SolverPricingSwitches)
	v["dataplane.rules_touched_per_event"] = ratio(d(m1.RulesInstalled+m1.RulesUpdated+m1.RulesRemoved, m0.RulesInstalled+m0.RulesUpdated+m0.RulesRemoved), reconf)
	v["dataplane.switches_touched_per_event"] = ratio(d(m1.SwitchesTouched, m0.SwitchesTouched), reconf)
	compiles := float64(m1.Fastpath.Compiles - m0.Fastpath.Compiles)
	v["fastpath.recompiles"] = compiles
	v["fastpath.compile_us"] = ratio(m1.Fastpath.TotalCompileMicros-m0.Fastpath.TotalCompileMicros, compiles)
	v["store.snapshots"] = float64(m1.Durability.Snapshots - m0.Durability.Snapshots)
	v["store.recovery_ms"] = ms(recovery.Duration)
	v["store.replayed_records"] = float64(recovery.ReplayedRecords)
	v["go.allocs_per_event"] = ratio(float64(a.mem1.Mallocs-a.mem0.Mallocs), events)
	v["go.alloc_kb_per_event"] = ratio(float64(a.mem1.TotalAlloc-a.mem0.TotalAlloc)/1024, events)
	v["go.gc_pause_ms"] = float64(a.mem1.PauseTotalNs-a.mem0.PauseTotalNs) / 1e6

	// The second goroutine, over section a.
	v["server.scrape_p50_ms"] = median(a.scrapeMs)
	blocked := 0
	for _, x := range a.scrapeMs {
		if x > scrapeBlockedMs {
			blocked++
		}
	}
	v["server.scrape_blocked_frac"] = ratio(float64(blocked), float64(len(a.scrapeMs)))
	v["fastpath.flows_per_s"] = ratio(float64(a.flows), a.loop.Wall.Seconds())
	v["fastpath.delivered_frac"] = ratio(float64(a.delivered), float64(a.flows))
	v["gen.lateness_p90_ms"] = percentile(a.loop.LateMs, 90)

	// Spans, over section c. An event's unattributed time is its span's
	// self time less the layers replayed for it afterwards, which ran
	// inside it the first time round.
	byName := map[string][]float64{}
	replayed := map[int]float64{} // event index -> time of its replayed layers
	var appendMs, snapshotAppendMs []float64
	hasSnapshot := map[int]bool{} // append span index -> a snapshot was taken under it
	for _, s := range spans {
		if s.Name == spSnapshot && s.Parent >= 0 {
			hasSnapshot[s.Parent] = true
		}
	}
	for i, s := range spans {
		if s.ID < 0 {
			continue // set-up
		}
		dur := ms(s.dur())
		byName[s.Name] = append(byName[s.Name], dur)
		if s.Parent >= 0 && spans[s.Parent].Name == spReplay {
			replayed[s.ID] += dur
		}
		if s.Name == spAppend {
			if hasSnapshot[i] {
				snapshotAppendMs = append(snapshotAppendMs, dur)
			} else {
				appendMs = append(appendMs, dur)
			}
		}
	}
	var other []float64
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Name == spEvent {
			rest := ms(self[i]) - replayed[s.ID]
			if rest < 0 {
				rest = 0
			}
			other = append(other, rest)
		}
	}
	eventTotal := sum(byName[spEvent])
	us := func(name string) float64 { return mean(byName[name]) * 1e3 }
	v["runtime.install_other_ms"] = mean(other)
	v["core.dep_index_us"] = us(spDepIndex)
	v["check.audit_ms"] = mean(byName[spAudit])
	v["dataplane.compile_rules_us"] = us(spCompileRules)
	v["dataplane.plan_us"] = us(spPlan)
	v["dataplane.apply_us"] = us(spApply)
	v["store.append_us"] = mean(appendMs) * 1e3
	v["store.fsync_us"] = us(spFsync)
	v["store.bytes_per_append"] = ratio(float64(traced.fs.walBytes), float64(len(byName[spAppend])+1)) // +1: the set-up append

	v["store.snapshot_ms"] = 0 // unless the run took one
	if len(snapshotAppendMs) > 0 {
		v["store.snapshot_ms"] = mean(snapshotAppendMs) - mean(appendMs)
	}
	if composed := byName[spCompose]; len(composed) > 0 {
		v["compose.compose_ms"] = mean(composed) // per graph-churn op, in place of the one-shot
	}
	var deltaMs, fullMs, vars, rows []float64
	var solveNodes float64
	var solveTime time.Duration
	for _, s := range traced.solves {
		solveNodes += float64(s.Stats.Nodes)
		solveTime += s.Stats.Duration
		if s.Delta {
			deltaMs = append(deltaMs, ms(s.Stats.Duration))
			continue
		}
		fullMs = append(fullMs, ms(s.Stats.Duration))
		vars = append(vars, float64(s.Stats.Variables))
		rows = append(rows, float64(s.Stats.Constraints))
	}
	v["core.delta_solve_ms"] = mean(deltaMs)
	v["core.full_solve_ms"] = mean(fullMs)
	v["core.model_vars"] = mean(vars)
	v["core.model_rows"] = mean(rows)
	v["core.solve_share"] = ratio(ms(solveTime), eventTotal)
	v["milp.node_rate"] = ratio(solveNodes, solveTime.Seconds())

	// The three sections against each other.
	v["trace.events"] = float64(len(c.loop.Events))
	v["trace.attributed_frac"] = 1 - ratio(sum(other), eventTotal)
	v["trace.overhead_frac"] = ratio(eventTotal-sum(b.loop.SvcMs), sum(b.loop.SvcMs))
	// An event costs the same over HTTP and through the runtime, give or
	// take the server, only where the two solve alike: not in the open
	// loop, which has no HTTP form, and not with a parallel search, whose
	// two runs of one event differ by more than the server costs. There
	// the overhead is reported as 0.
	comparable := !spec.Open && spec.Workers == 1
	var overheadUs []float64
	v["trace.diverged_events"] = 0
	for i := range c.loop.Acks {
		if a.loop.Acks[i] != b.loop.Acks[i] || b.loop.Acks[i] != c.loop.Acks[i] {
			v["trace.diverged_events"]++
		}
		if comparable && a.loop.LatMs[i] >= 0 && b.loop.LatMs[i] >= 0 {
			overheadUs = append(overheadUs, (a.loop.LatMs[i]-b.loop.SvcMs[i])*1e3)
		}
	}
	v["server.overhead_us"] = median(overheadUs)
	return v
}

// scrapeBlockedMs is how late a scrape has to be to count as blocked: a
// /metrics reply that waited for the server's lock, not for the loopback.
const scrapeBlockedMs = 10
