// Package runtime glues the Janus configurator to the simulated dataplane
// and drives the system dynamics of §2.2: endpoint mobility and membership
// changes, policy-graph churn, temporal period transitions, and stateful
// condition triggers. Every solve sees the flows' event counters, so the
// model itself serves an escalated flow's active edge hard; a trigger
// re-solves only its own policy, against the capacity its reservation
// held, and freezes every other one (§5.3).
package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"janus/internal/check"
	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/store"
	"janus/internal/topo"
)

// Metrics accumulates the disruption counters the paper's evaluation
// reports — path changes (Fig 14, Table 5), rule updates, switches touched,
// NF state transfers (§2.2) — plus the robustness counters of the
// fault-tolerant runtime: retries, rollbacks, audit outcomes, quarantines,
// and the solver degradation tier each reconfiguration was served at.
type Metrics struct {
	Reconfigurations int
	PathChanges      int
	RulesInstalled   int
	RulesUpdated     int
	RulesRemoved     int
	SwitchesTouched  int
	NFStateTransfers int
	StatefulReroutes int

	// ApplyRetries counts dataplane update attempts beyond the first.
	ApplyRetries int
	// ApplyRollbacks counts plans abandoned after the retry budget and
	// rolled back to the prior rule set.
	ApplyRollbacks int
	// AuditViolations / AuditRollbacks count post-install self-audit
	// findings and the rollbacks they triggered.
	AuditViolations int
	AuditRollbacks  int
	// QuarantinedSwitches counts switches taken out of service after
	// exhausting the retry budget.
	QuarantinedSwitches int
	// DeltaSolves counts reconfigurations served by an incremental (delta)
	// solve over only the affected policies; DeltaFallbacks counts events
	// where the delta path was attempted but a full re-solve ran instead
	// (optimality guard, degraded sub-model, audit rejection, oversized
	// affected set).
	DeltaSolves    int
	DeltaFallbacks int
	// DeltaAffectedPolicies sums affected-set sizes across delta solves
	// (divide by DeltaSolves for the mean sub-model size).
	DeltaAffectedPolicies int
	// TierHistory records the degradation tier each of the last
	// tierHistoryLen reconfigurations was served at, oldest first
	// (core.DegradationTier strings).
	TierHistory []string
	// TierCounts totals the tiers of every reconfiguration plus the initial
	// configuration.
	TierCounts map[string]int

	// SolverWorkers is the branch-and-bound worker count of the most
	// recently installed configuration's solve.
	SolverWorkers int
	// SolverNodes sums branch-and-bound nodes across installed solves.
	SolverNodes int
	// SolverNodeRate is the most recent solve's node throughput
	// (nodes per second of solve wall time); 0 when the solve was too
	// fast to time meaningfully.
	SolverNodeRate float64
	// SolverLPIterations sums simplex pivots across installed solves.
	SolverLPIterations int
	// SolverRefactorizations sums LP basis refactorizations across
	// installed solves (low relative to SolverLPIterations means eta-file
	// updates and warm-start factorization reuse are doing their job).
	SolverRefactorizations int
	// SolverPricingSwitches sums candidate-list → full-scan pricing
	// fallbacks across installed solves.
	SolverPricingSwitches int
}

// Runtime is a live Janus instance: a configurator, its current result, and
// the dataplane it keeps in sync. The configurator holds the live composed
// graph, and every solve is for the graph's period that contains the hour.
type Runtime struct {
	conf *core.Configurator
	topo *topo.Topology
	net  *dataplane.Network

	hour     int
	current  *core.Result
	counters core.Counters // per-flow event counters
	metrics  Metrics

	retry RetryPolicy
	// journal, when non-nil, receives one durable record per public
	// mutation before the mutation is acknowledged; pendingOps accumulates
	// the topology deltas the current mutation performed.
	journal    Journal
	pendingOps []store.TopoOp
	// failedLinks remembers the capacity of links removed by FailLink or
	// quarantine, keyed by normalized endpoint pair, so RestoreLink can put
	// them back.
	failedLinks map[[2]topo.NodeID]float64
	quarantined map[topo.NodeID]bool
}

// tierHistoryLen bounds Metrics.TierHistory: the metrics ride in every
// journal record and snapshot, so the history is a recent window, not a log.
const tierHistoryLen = 64

// maxQuarantineDepth bounds the quarantines one reconfiguration may make;
// a real topology runs out of alternate paths long before this.
const maxQuarantineDepth = 8

// New starts a runtime at hour 0 with an initial configuration.
func New(ctx context.Context, conf *core.Configurator) (*Runtime, error) {
	r := newRuntime(conf)
	res, err := conf.ConfigureContext(ctx, 0, r.counters)
	if err != nil {
		return nil, fmt.Errorf("runtime: initial configuration: %w", err)
	}
	rep, err := r.install(ctx, res)
	if err != nil {
		return nil, err
	}
	r.account(nil, res, rep)
	return r, nil
}

// newRuntime is a runtime on conf's topology and graph with an empty
// dataplane, no result, and no counters, failed links, or quarantines.
func newRuntime(conf *core.Configurator) *Runtime {
	return &Runtime{
		conf:        conf,
		topo:        conf.Topology(),
		net:         dataplane.NewNetwork(conf.Topology()),
		counters:    core.Counters{},
		retry:       DefaultRetryPolicy().normalize(),
		failedLinks: map[[2]topo.NodeID]float64{},
		quarantined: map[topo.NodeID]bool{},
	}
}

// SetRetryPolicy replaces the dataplane-update retry policy (tests and
// chaos soaks inject a no-op sleeper and a seeded RNG).
func (r *Runtime) SetRetryPolicy(p RetryPolicy) { r.retry = p.normalize() }

// Metrics returns a deep copy of the accumulated disruption counters.
func (r *Runtime) Metrics() Metrics {
	m := r.metrics
	m.TierHistory = append([]string(nil), r.metrics.TierHistory...)
	if r.metrics.TierCounts != nil {
		m.TierCounts = make(map[string]int, len(r.metrics.TierCounts))
		for k, v := range r.metrics.TierCounts {
			m.TierCounts[k] = v
		}
	}
	return m
}

// PathChanges returns Metrics().PathChanges without the copy.
func (r *Runtime) PathChanges() int { return r.metrics.PathChanges }

// Current returns the active configuration result.
func (r *Runtime) Current() *core.Result { return r.current }

// Network returns the simulated dataplane for inspection.
func (r *Runtime) Network() *dataplane.Network { return r.net }

// Hour returns the runtime's current hour of day.
func (r *Runtime) Hour() int { return r.hour }

// install applies res (apply), then compiles the fast path from the new
// tables and self-audits that classifier at the runtime's hour. A
// violation rolls the tables back and keeps the prior result and
// classifier live: the plan applied in full, so its undo restores exactly
// the tables the published classifier was compiled from, and nothing is
// republished. Only a clean audit publishes the classifier and makes res
// current (settle). It never solves (reconfigure handles a failure) and
// counts only its failures: the caller accounts an installed result.
func (r *Runtime) install(ctx context.Context, res *core.Result) (dataplane.CompileResult, error) {
	plan, err := r.apply(ctx, res)
	if err != nil {
		return dataplane.CompileResult{}, err
	}
	fast := r.net.Compile()
	if vs := check.AuditCompiled(r.topo, r.conf.Graph(), r.net, fast, res, r.hour, r.counters); len(vs) > 0 {
		r.metrics.AuditViolations += len(vs)
		r.metrics.AuditRollbacks++
		r.net.RollbackPlan(plan)
		return dataplane.CompileResult{}, fmt.Errorf("runtime: self-audit failed with %d violations (first: %s/%s), rolled back",
			len(vs), vs[0].Kind, vs[0].Detail)
	}
	return r.settle(res, plan, fast), nil
}

// apply compiles res into rules and applies them transactionally: the
// three-phase plan is retried with backoff on injected faults and rolled
// back after the retry budget. A rollback skips a switch that crashed
// mid-update, whose table stays wiped, so the tables no longer match the
// published classifier: the fast path is republished.
func (r *Runtime) apply(ctx context.Context, res *core.Result) (*dataplane.UpdatePlan, error) {
	rules := dataplane.CompileRules(r.topo, dataplane.NewGraphAdapter(r.conf.Graph()), res)
	plan := r.net.PlanUpdate(rules)
	if err := r.applyPlanWithRetry(ctx, plan); err != nil {
		r.net.RollbackPlan(plan)
		r.net.Recompile()
		r.metrics.ApplyRollbacks++
		return nil, fmt.Errorf("runtime: install rolled back: %w", err)
	}
	return plan, nil
}

// settle makes res, which plan applied, current and publishes fast, the
// classifier of its tables (atomic swap; in-flight lookups finish on the
// previous generation). It returns the plan's rule delta with the NF
// state transfers res costs.
func (r *Runtime) settle(res *core.Result, plan *dataplane.UpdatePlan, fast *dataplane.Compiled) dataplane.CompileResult {
	rep := plan.Report()
	rep.NFStateTransfers = r.net.AccountNFState(res.Assignments)
	r.current = res
	r.net.Publish(fast)
	return rep
}

// account adds an installed result's solve statistics and rule delta to
// the metrics; prev is the result it replaced, nil at bring-up.
func (r *Runtime) account(prev, res *core.Result, rep dataplane.CompileResult) {
	if prev != nil {
		r.metrics.PathChanges += core.CountPathChanges(prev, res)
		r.metrics.Reconfigurations++
		h := append(r.metrics.TierHistory, res.Tier.String())
		r.metrics.TierHistory = h[max(0, len(h)-tierHistoryLen):]
	}
	if r.metrics.TierCounts == nil {
		r.metrics.TierCounts = map[string]int{}
	}
	r.metrics.TierCounts[res.Tier.String()]++
	r.metrics.SolverWorkers = res.Stats.Workers
	r.metrics.SolverNodes += res.Stats.Nodes
	if d := res.Stats.Duration.Seconds(); d > 0 {
		r.metrics.SolverNodeRate = float64(res.Stats.Nodes) / d
	}
	r.metrics.SolverLPIterations += res.Stats.LPIterations
	r.metrics.SolverRefactorizations += res.Stats.Refactorizations
	r.metrics.SolverPricingSwitches += res.Stats.PricingSwitches
	r.metrics.RulesInstalled += rep.RulesInstalled
	r.metrics.RulesUpdated += rep.RulesUpdated
	r.metrics.RulesRemoved += rep.RulesRemoved
	r.metrics.SwitchesTouched += rep.SwitchesTouched
	r.metrics.NFStateTransfers += rep.NFStateTransfers
}

// applyPlanWithRetry drives ApplyPlan under the retry policy. ApplyPlan
// resumes from the failed phase, so retries never redo completed phases.
func (r *Runtime) applyPlanWithRetry(ctx context.Context, plan *dataplane.UpdatePlan) error {
	var err error
	for attempt := 1; attempt <= r.retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			r.metrics.ApplyRetries++
			r.retry.Sleep(ctx, r.retry.backoff(attempt-1))
			if ctx.Err() != nil {
				return fmt.Errorf("%w (retry sleep aborted: %v)", err, ctx.Err())
			}
		}
		if err = r.net.ApplyPlan(plan); err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w (aborting retries: %v)", err, ctx.Err())
		}
	}
	return err
}

// quarantine takes a persistently failing switch out of service: its links
// are removed from the topology (capacities remembered for RestoreLink),
// their cached paths dropped, and its rules written off without touching
// the switch — no walk reaches a switch without links, and a plan that
// deleted them would fail on it at every later event. Writing them off
// changes the tables outside a plan, so the fast path is republished. It
// returns the seeds of the re-solve around the switch: the policies with
// an assignment visiting it. An assignment through the switch crosses one
// of its links, which freezeValid rejects once removed, unless it is a
// zero-hop path of a same-switch pair: no validity check sees that one, so
// it is seeded.
func (r *Runtime) quarantine(sw topo.NodeID) map[int]bool {
	r.quarantined[sw] = true
	r.metrics.QuarantinedSwitches++
	r.net.DropTable(sw)
	r.net.Recompile()
	affected := map[int]bool{}
	r.policiesVisiting(sw, affected)
	for _, nb := range r.topo.Neighbors(sw) {
		capacity, ok := r.topo.LinkCapacity(sw, nb)
		if !ok {
			continue
		}
		if err := r.topo.RemoveLink(sw, nb); err != nil {
			continue
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoRemoveLink, A: sw, B: nb})
		r.failedLinks[topo.LinkKey(sw, nb)] = capacity
		r.conf.InvalidateLinkPaths(sw, nb)
	}
	return affected
}

// Quarantined lists switches currently quarantined, ascending.
func (r *Runtime) Quarantined() []topo.NodeID {
	out := make([]topo.NodeID, 0, len(r.quarantined))
	for id := range r.quarantined {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Audit re-checks the published classifier and the tables against the
// current configuration at the runtime's hour and returns any violations
// (empty means the installed state is sound). At the end of every event
// the published classifier describes the installed tables and endpoint
// attachments: an install publishes its own, and an apply rollback, a
// quarantine and a move that installs nothing republish.
func (r *Runtime) Audit() []check.Violation {
	return check.Audit(r.topo, r.conf.Graph(), r.net, r.current, r.hour, r.counters)
}

// Event is one runtime event as a value: a kind plus the union of the
// bodies janusd's /events/{kind} route takes, under the same JSON keys.
// A kind reads only its own fields.
type Event struct {
	Kind     string       `json:"-"`
	Endpoint string       `json:"endpoint"` // move, relabel
	To       topo.NodeID  `json:"to"`       // move target; link end
	From     topo.NodeID  `json:"from"`     // link end
	Labels   []string     `json:"labels"`   // relabel
	Src      string       `json:"src"`      // counter
	Dst      string       `json:"dst"`      // counter
	Event    policy.Event `json:"event"`    // counter
	Delta    int          `json:"delta"`    // counter; 0 counts as 1
	Hour     int          `json:"hour"`     // hour tick target
}

// Event kinds, each the last element of the route that takes it.
const (
	EventMove        = "move"
	EventRelabel     = "relabel"
	EventCounter     = "counter"
	EventHour        = "hour"
	EventLinkFail    = "linkfail"
	EventLinkRestore = "linkrestore"
)

// EventKinds lists every kind Apply accepts.
var EventKinds = []string{EventMove, EventRelabel, EventCounter, EventHour, EventLinkFail, EventLinkRestore}

// Apply runs ev through the mutator its kind names.
func (r *Runtime) Apply(ctx context.Context, ev Event) error {
	switch ev.Kind {
	case EventMove:
		return r.MoveEndpoint(ctx, ev.Endpoint, ev.To)
	case EventRelabel:
		return r.RelabelEndpoint(ctx, ev.Endpoint, ev.Labels...)
	case EventCounter:
		if ev.Delta == 0 {
			ev.Delta = 1
		}
		return r.ReportEvent(ctx, ev.Src, ev.Dst, ev.Event, ev.Delta)
	case EventHour:
		return r.AdvanceTo(ctx, ev.Hour)
	case EventLinkFail:
		return r.FailLink(ctx, ev.From, ev.To)
	case EventLinkRestore:
		return r.RestoreLink(ctx, ev.From, ev.To)
	}
	return fmt.Errorf("runtime: unknown event kind %q", ev.Kind)
}

// MoveEndpoint relocates an endpoint and reconfigures incrementally
// (warm start + path-change penalty, §5.4).
func (r *Runtime) MoveEndpoint(ctx context.Context, name string, to topo.NodeID) error {
	return r.journalOp(store.KindReconfigure, func(rec *store.Record) error {
		if err := r.topo.MoveEndpoint(name, to); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoMove, Endpoint: name, Node: to})
		// A move changes attach points, not membership.
		affected := map[int]bool{}
		r.matchingPolicies(name, affected)
		if err := r.reconfigureEvent(ctx, affected); err != nil {
			// The endpoint has moved, but the published classifier still
			// delivers to its old attachment: republish, so readers and
			// the audit see where the installed rules now take its flows.
			r.net.Recompile()
			return err
		}
		return nil
	})
}

// RelabelEndpoint changes an endpoint's group membership and reconfigures.
func (r *Runtime) RelabelEndpoint(ctx context.Context, name string, labels ...string) error {
	return r.journalOp(store.KindReconfigure, func(rec *store.Record) error {
		// Membership before and after both matter: policies losing the
		// endpoint must drop its pairs, policies gaining it need paths.
		affected := map[int]bool{}
		r.matchingPolicies(name, affected)
		if err := r.topo.RelabelEndpoint(name, labels...); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoRelabel, Endpoint: name, Labels: labels})
		r.matchingPolicies(name, affected)
		return r.reconfigureEvent(ctx, affected)
	})
}

// reconfigureEvent re-solves after an event and installs the result,
// delta-first when delta solving is enabled. affected holds the event's
// seeds: only the policies no validity check in the delta solve can see.
func (r *Runtime) reconfigureEvent(ctx context.Context, affected map[int]bool) error {
	return r.reconfigure(ctx, affected, r.conf.DeltaEnabled())
}

// reconfigure is the runtime's one solve→install loop. A pass solves the
// live graph's period that contains the runtime's hour, by delta when
// delta is set, else the whole period model, and installs the result. A
// delta refusal (ErrDeltaFallback) or a rejected delta install sends the
// next pass to the full solve. An apply failure whose switch exhausted its
// retries first quarantines the switch; the next pass then re-solves
// around it, delta-first again, seeded with the policies that visited it.
// A failure on a switch already quarantined, or after maxQuarantineDepth
// quarantines, quarantines nothing. The loop ends at the first install or
// at a failed full pass.
func (r *Runtime) reconfigure(ctx context.Context, affected map[int]bool, delta bool) error {
	period := r.conf.Graph().PeriodAt(r.hour)
	for quarantines := 0; ; {
		var res *core.Result
		var err error
		if delta {
			res, err = r.conf.DeltaReconfigureContext(ctx, r.current, core.DeltaRequest{Period: period, Affected: affected, Counters: r.counters})
			if errors.Is(err, core.ErrDeltaFallback) {
				r.metrics.DeltaFallbacks++
				delta = false
			} else if err != nil {
				return fmt.Errorf("runtime: delta reconfiguring: %w", err)
			}
		}
		if !delta {
			if res, err = r.conf.ReconfigureAtContext(ctx, r.current, period, r.counters); err != nil {
				return fmt.Errorf("runtime: reconfiguring: %w", err)
			}
		}
		prev := r.current
		var rep dataplane.CompileResult
		if rep, err = r.install(ctx, res); err == nil {
			r.account(prev, res, rep)
			if delta {
				r.metrics.DeltaSolves++
				r.metrics.DeltaAffectedPolicies += res.Delta.Affected
			}
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		if delta {
			r.metrics.DeltaFallbacks++ // the merged result never landed
		}
		var opErr *dataplane.OpError
		if errors.As(err, &opErr) && !r.quarantined[opErr.Switch] && quarantines < maxQuarantineDepth {
			quarantines++
			affected, delta = r.quarantine(opErr.Switch), r.conf.DeltaEnabled()
			continue
		}
		if !delta {
			return err
		}
		delta = false
	}
}

// matchingPolicies adds to out every policy whose source or destination
// EPG the endpoint currently matches.
func (r *Runtime) matchingPolicies(name string, out map[int]bool) {
	ep, ok := r.topo.EndpointByName(name)
	if !ok {
		return
	}
	for _, p := range r.conf.Graph().Policies {
		if p.Src.Contains(ep.Labels) || p.Dst.Contains(ep.Labels) {
			out[p.ID] = true
		}
	}
}

// unsettledPolicies adds to out the policies the current result left
// unconfigured or without their soft reservation: the ones freed capacity
// may help.
func (r *Runtime) unsettledPolicies(out map[int]bool) {
	for pid, ok := range r.current.Configured {
		if !ok {
			out[pid] = true
		}
	}
	for pid, used := range r.current.SlackUsed {
		if used {
			out[pid] = true
		}
	}
}

// policiesVisiting adds to out the policies with a current assignment
// whose path visits switch sw.
func (r *Runtime) policiesVisiting(sw topo.NodeID, out map[int]bool) {
	for _, a := range r.current.Assignments {
		if slices.Contains(a.Path.Nodes, sw) {
			out[a.Policy] = true
		}
	}
}

// FailLink removes a link from the topology and reconfigures with
// path-change minimization: only flows whose paths crossed the failed link
// should move (§8: "handle this in a manner similar to §5.4"). The
// reconfiguration keeps valid previous paths via the ρ penalty; paths that
// used the failed link are no longer candidates and reroute. The link's
// capacity is remembered so RestoreLink can undo the failure.
func (r *Runtime) FailLink(ctx context.Context, a, b topo.NodeID) error {
	return r.journalOp(store.KindLinkFail, func(rec *store.Record) error {
		capacity, ok := r.topo.LinkCapacity(a, b)
		if !ok {
			return fmt.Errorf("runtime: no link %d-%d", a, b)
		}
		if err := r.topo.RemoveLink(a, b); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoRemoveLink, A: a, B: b})
		r.failedLinks[topo.LinkKey(a, b)] = capacity
		// A removal can only delete paths: drop exactly the cached
		// enumerations that crossed the link.
		r.conf.InvalidateLinkPaths(a, b)
		// No seeds: every assignment crossing the link is rejected by
		// freezeValid, which widens its policy into the sub-model.
		return r.reconfigureEvent(ctx, nil)
	})
}

// RestoreLink re-adds a link previously removed by FailLink (or by a
// quarantine) at its remembered capacity and reconfigures so flows can
// move back onto their preferred paths.
func (r *Runtime) RestoreLink(ctx context.Context, a, b topo.NodeID) error {
	return r.journalOp(store.KindLinkRestore, func(rec *store.Record) error {
		capacity, ok := r.failedLinks[topo.LinkKey(a, b)]
		if !ok {
			return fmt.Errorf("runtime: link %d-%d was not failed", a, b)
		}
		if err := r.topo.AddLink(a, b, capacity); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoAddLink, A: a, B: b, Capacity: capacity})
		delete(r.failedLinks, topo.LinkKey(a, b))
		// An addition can create paths for any pair: the whole cache goes.
		r.conf.InvalidatePaths()
		// Restored capacity helps exactly the policies that lost out:
		// unsatisfied ones and those whose soft reservation was given up.
		// Satisfied policies stay frozen — keeping them off the restored
		// link is the path-stability tradeoff §5.4 argues for.
		affected := map[int]bool{}
		r.unsettledPolicies(affected)
		return r.reconfigureEvent(ctx, affected)
	})
}

// AdvanceTo moves the clock to hour h; if the composed graph changes
// periods in between, the clock stops at each boundary in order while that
// boundary's configuration is applied. On error the clock stays at the
// last successfully applied boundary.
func (r *Runtime) AdvanceTo(ctx context.Context, h int) error {
	return r.journalOp(store.KindTick, func(rec *store.Record) error {
		if h < 0 || h >= policy.HoursPerDay {
			return fmt.Errorf("runtime: hour %d out of range", h)
		}
		periods := r.conf.Graph().Periods()
		for settled := r.hour; r.hour != h; {
			r.hour = (r.hour + 1) % policy.HoursPerDay
			if !slices.Contains(periods, r.hour) {
				continue
			}
			// The boundary affects policies whose edge sets change across
			// it, which the delta solve widens in itself, plus the
			// unsatisfied/unreserved ones that may fit into whatever the
			// closing windows free up.
			affected := map[int]bool{}
			r.unsettledPolicies(affected)
			if err := r.reconfigureEvent(ctx, affected); err != nil {
				failed := r.hour
				r.hour = settled
				return fmt.Errorf("runtime: period transition at %dh: %w", failed, err)
			}
			settled = r.hour
		}
		return nil
	})
}

// ReportEvent increments a flow's event counter (e.g. a failed connection
// observed at an IDS). A count that leaves the flow's active edge as it was
// is only journaled. One that changes it — a stateful condition firing —
// re-solves the flow's policy, delta-scoped when delta solving is usable:
// the model serves the newly active edge hard, and the sub-model fits it
// into the capacity the policy's reservation held while every other policy
// stays frozen (§5.3: "it could reserve paths for changed policy
// beforehand ... no other policy will have to change its path").
func (r *Runtime) ReportEvent(ctx context.Context, src, dst string, ev policy.Event, delta int) error {
	return r.journalOp(store.KindCounter, func(rec *store.Record) error {
		flow := core.FlowKey(src, dst)
		// Find the composed policy for this endpoint pair before touching
		// the counter: a flow no policy covers is rejected without mutating
		// (or journaling) anything.
		pid, p := r.policyFor(src, dst)
		if p == nil {
			return fmt.Errorf("runtime: no policy covers flow %s", flow)
		}
		if r.counters[flow] == nil {
			r.counters[flow] = map[policy.Event]int{}
		}
		_, was, _ := compose.ActiveEdge(p, r.hour, r.counters[flow])
		r.counters[flow][ev] += delta
		rec.Counter = &store.CounterDelta{Src: src, Dst: dst, Event: ev, Delta: delta}
		if _, now, _ := compose.ActiveEdge(p, r.hour, r.counters[flow]); now == was {
			return nil
		}
		rec.Kind = store.KindEscalate
		if err := r.reconfigureEvent(ctx, map[int]bool{pid: true}); err != nil {
			return err
		}
		r.metrics.StatefulReroutes++
		return nil
	})
}

func (r *Runtime) policyFor(src, dst string) (int, *compose.Policy) {
	srcEP, ok := r.topo.EndpointByName(src)
	if !ok {
		return -1, nil
	}
	dstEP, ok := r.topo.EndpointByName(dst)
	if !ok {
		return -1, nil
	}
	for _, p := range r.conf.Graph().Policies {
		if p.Src.Contains(srcEP.Labels) && p.Dst.Contains(dstEP.Labels) {
			return p.ID, p
		}
	}
	return -1, nil
}

// UpdateGraph swaps in a new composed policy graph (graph churn, §2.2) and
// reconfigures against the live result carried into the new graph's policy
// IDs (core.Configurator.Carry), keeping the path cache. A changed graph
// is an event like any other: the delta solve re-solves the policies the
// swap added or changed, for the new graph's period at the clock, with the
// same fallbacks to a full solve. A graph equal to the live one is the
// operator asking for a global re-optimisation, and solves fully. The swap
// is all or nothing: when no configuration of the new graph installs, the
// live configurator, with its graph, and the live result stay as they were.
func (r *Runtime) UpdateGraph(ctx context.Context, g *compose.Graph, cfg core.Config) error {
	return r.journalOp(store.KindConfigure, func(rec *store.Record) error {
		conf, err := r.conf.Rebind(g, cfg)
		if err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		carried, affected, same := conf.Carry(r.current, r.conf.Graph())
		oldConf, oldCurrent := r.conf, r.current
		r.conf = conf
		if same {
			err = r.reconfigure(ctx, nil, false)
		} else {
			r.current = carried
			err = r.reconfigureEvent(ctx, affected)
		}
		if err != nil {
			// No install succeeded, so the dataplane still realizes the
			// old result under the old graph.
			r.conf, r.current = oldConf, oldCurrent
			return err
		}
		// A graph swap re-journals the full topology and composed graph so
		// replay never depends on records older than the swap. The
		// topology already holds whatever a quarantine during the swap
		// removed, so those ops must not replay on top of it.
		rec.Topo = r.topo
		rec.Graph = g
		r.pendingOps = nil
		return nil
	})
}

// Verify is the forwarding view of Audit: the flows of configured policies
// that do not reach their destination or skip a required middlebox,
// rendered as sorted strings — the end-to-end check that installed rules
// actually realize the intent.
func (r *Runtime) Verify() []string {
	var problems []string
	for _, v := range r.Audit() {
		if v.Kind == check.Unreachable || v.Kind == check.ChainViolation {
			problems = append(problems, v.String())
		}
	}
	sort.Strings(problems)
	return problems
}
