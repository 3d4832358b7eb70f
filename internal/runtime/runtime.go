// Package runtime glues the Janus configurator to the simulated dataplane
// and drives the system dynamics of §2.2: endpoint mobility and membership
// changes, policy-graph churn, temporal period transitions, and stateful
// condition triggers that reroute flows onto pre-reserved escalation paths
// without re-solving the optimization.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

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
// the dataplane it keeps in sync.
type Runtime struct {
	conf    *core.Configurator
	graph   *compose.Graph
	topo    *topo.Topology
	net     *dataplane.Network
	adapter *dataplane.GraphAdapter

	hour     int
	current  *core.Result
	counters map[string]map[policy.Event]int // per-flow event counters
	metrics  Metrics
	// depIndex maps topology elements to dependent policies for the
	// current result; rebuilt at every install settle point and nil while
	// no sound index exists (then events re-solve fully).
	depIndex *core.DepIndex

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
	// quarantineDepth bounds the quarantine -> reconfigure -> fail ->
	// quarantine recursion.
	quarantineDepth int
}

// tierHistoryLen bounds Metrics.TierHistory: the metrics ride in every
// journal record and snapshot, so the history is a recent window, not a log.
const tierHistoryLen = 64

// maxQuarantineDepth bounds cascading quarantines within one install; a
// real topology runs out of alternate paths long before this.
const maxQuarantineDepth = 8

// New starts a runtime at hour 0 with an initial configuration.
func New(ctx context.Context, conf *core.Configurator) (*Runtime, error) {
	r := &Runtime{
		conf:        conf,
		graph:       conf.Graph(),
		topo:        conf.Topology(),
		net:         dataplane.NewNetwork(conf.Topology()),
		adapter:     dataplane.NewGraphAdapter(conf.Graph()),
		counters:    map[string]map[policy.Event]int{},
		retry:       DefaultRetryPolicy().normalize(),
		failedLinks: map[[2]topo.NodeID]float64{},
		quarantined: map[topo.NodeID]bool{},
	}
	res, err := conf.ConfigureContext(ctx, 0)
	if err != nil {
		return nil, fmt.Errorf("runtime: initial configuration: %w", err)
	}
	if err := r.install(ctx, res, 0); err != nil {
		return nil, err
	}
	return r, nil
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

// install compiles res into rules and applies them transactionally: the
// three-phase plan is retried with backoff on injected faults; after the
// retry budget the plan is rolled back and the failing switch quarantined
// (degraded reconfiguration without it); after a successful apply the
// installed state is self-audited and rolled back to the prior rule set on
// any violation. hour is the wall-clock hour the configuration is for
// (audit resolves temporal policies against it).
func (r *Runtime) install(ctx context.Context, res *core.Result, hour int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	rules := dataplane.CompileRules(r.topo, r.adapter, res)
	plan := r.net.PlanUpdate(rules)
	if err := r.applyPlanWithRetry(ctx, plan); err != nil {
		r.net.RollbackPlan(plan)
		// The rollback restored the previous settled rule set: republish
		// the compiled fast path for it before anything else (quarantine
		// may reconfigure, which recompiles again on its own install).
		r.net.Recompile()
		r.metrics.ApplyRollbacks++
		var opErr *dataplane.OpError
		if errors.As(err, &opErr) && ctx.Err() == nil {
			return r.quarantine(ctx, opErr.Switch, err)
		}
		return fmt.Errorf("runtime: install rolled back: %w", err)
	}

	// Self-audit: the installed rules must actually realize the intent.
	// Any violation rolls the dataplane back to the exact prior rule set
	// and keeps the prior result live.
	if vs := check.Audit(r.topo, r.graph, r.net, res, hour, r.counters); len(vs) > 0 {
		r.metrics.AuditViolations += len(vs)
		r.metrics.AuditRollbacks++
		r.net.RollbackPlan(plan)
		r.net.Recompile()
		return fmt.Errorf("runtime: self-audit failed with %d violations (first: %s/%s), rolled back",
			len(vs), vs[0].Kind, vs[0].Detail)
	}

	rep := plan.Report()
	rep.NFStateTransfers = r.net.AccountNFState(res.Assignments)
	if r.current != nil {
		r.metrics.PathChanges += core.CountPathChanges(r.current, res)
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
	r.current = res
	// Settle point: publish the compiled fast path for the newly installed
	// configuration (atomic swap; in-flight lookups finish on the previous
	// generation), and rebuild the dependency index the next event's
	// affected-set computation will consult.
	r.net.Recompile()
	r.depIndex = core.BuildDepIndex(r.topo, r.graph, res)
	return nil
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
// are removed from the topology (capacities remembered for RestoreLink)
// and a degraded reconfiguration routes around it, reusing the link-failure
// machinery.
func (r *Runtime) quarantine(ctx context.Context, sw topo.NodeID, cause error) error {
	if r.quarantined[sw] {
		return fmt.Errorf("runtime: switch %d already quarantined: %w", sw, cause)
	}
	if r.quarantineDepth >= maxQuarantineDepth {
		return fmt.Errorf("runtime: quarantine cascade exceeded depth %d: %w", maxQuarantineDepth, cause)
	}
	r.quarantineDepth++
	defer func() { r.quarantineDepth-- }()

	r.quarantined[sw] = true
	r.metrics.QuarantinedSwitches++
	// Every assignment through the switch crosses one of its links, so the
	// node set covers everything the link removals below can touch.
	var affected map[int]bool
	if r.deltaUsable() {
		affected = map[int]bool{}
		r.depIndex.AffectedByNode(sw, affected)
	}
	for _, nb := range r.topo.Neighbors(sw) {
		capacity, ok := r.topo.LinkCapacity(sw, nb)
		if !ok {
			continue
		}
		if err := r.topo.RemoveLink(sw, nb); err != nil {
			continue
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoRemoveLink, A: sw, B: nb})
		r.failedLinks[linkKey(sw, nb)] = capacity
		r.conf.InvalidateLinkPaths(sw, nb)
	}
	if err := r.reconfigureEvent(ctx, r.current.Period, r.hour, affected); err != nil {
		return fmt.Errorf("runtime: degraded reconfiguration after quarantining switch %d: %w", sw, err)
	}
	return nil
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

// Audit re-checks the live dataplane against the current configuration and
// returns any violations (empty means the installed state is sound).
func (r *Runtime) Audit() []check.Violation {
	return check.Audit(r.topo, r.graph, r.net, r.current, r.hour, r.counters)
}

// MoveEndpoint relocates an endpoint and reconfigures incrementally
// (warm start + path-change penalty, §5.4).
func (r *Runtime) MoveEndpoint(ctx context.Context, name string, to topo.NodeID) error {
	return r.journalOp(store.KindReconfigure, func(rec *store.Record) error {
		if err := r.topo.MoveEndpoint(name, to); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoMove, Endpoint: name, Node: to})
		// A move changes attach points, not membership: the index's
		// endpoint→policy mapping is still current.
		return r.reconfigureEvent(ctx, r.current.Period, r.hour, r.affectedByEndpoint(name))
	})
}

// RelabelEndpoint changes an endpoint's group membership and reconfigures.
func (r *Runtime) RelabelEndpoint(ctx context.Context, name string, labels ...string) error {
	return r.journalOp(store.KindReconfigure, func(rec *store.Record) error {
		// Membership before and after both matter: policies losing the
		// endpoint must drop its pairs, policies gaining it need paths.
		affected := r.affectedByEndpoint(name)
		if err := r.topo.RelabelEndpoint(name, labels...); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoRelabel, Endpoint: name, Labels: labels})
		if affected != nil {
			r.matchingPolicies(name, affected)
		}
		return r.reconfigureEvent(ctx, r.current.Period, r.hour, affected)
	})
}

// AddEndpoint attaches a new endpoint and reconfigures (membership growth).
func (r *Runtime) AddEndpoint(ctx context.Context, name string, at topo.NodeID, labels ...string) error {
	return r.journalOp(store.KindReconfigure, func(rec *store.Record) error {
		if err := r.topo.AddEndpoint(name, at, labels...); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoAddEndpoint, Endpoint: name, Node: at, Labels: labels})
		var affected map[int]bool
		if r.deltaUsable() {
			affected = map[int]bool{}
			r.matchingPolicies(name, affected)
		}
		return r.reconfigureEvent(ctx, r.current.Period, r.hour, affected)
	})
}

func (r *Runtime) reconfigure(ctx context.Context) error {
	return r.reconfigureEvent(ctx, r.current.Period, r.hour, nil)
}

// reconfigureEvent re-solves after an event and installs the result. When
// affected is non-nil and delta solving is usable, only the affected
// policies are re-solved against residual capacities; any delta refusal
// (optimality guard, degraded sub-model, oversized affected share) or a
// rejected install (audit, apply failure) falls back to the full
// re-solve. A nil affected set always solves fully.
func (r *Runtime) reconfigureEvent(ctx context.Context, period, hour int, affected map[int]bool) error {
	if affected != nil && r.deltaUsable() {
		res, err := r.conf.DeltaReconfigureContext(ctx, r.current, core.DeltaRequest{Period: period, Affected: affected})
		switch {
		case err == nil:
			qBefore := r.metrics.QuarantinedSwitches
			ierr := r.install(ctx, r.escalate(res, hour), hour)
			if ierr == nil {
				if r.metrics.QuarantinedSwitches == qBefore {
					r.metrics.DeltaSolves++
					r.metrics.DeltaAffectedPolicies += res.Delta.Affected
				} else {
					// The merged result never landed: its apply failed and
					// the quarantine path re-solved fully on its own.
					r.metrics.DeltaFallbacks++
				}
				return nil
			}
			if ctx.Err() != nil {
				return ierr
			}
			// The audit or the dataplane rejected the merged result; the
			// full solve below gets its global view.
			r.metrics.DeltaFallbacks++
		case errors.Is(err, core.ErrDeltaFallback):
			r.metrics.DeltaFallbacks++
		default:
			return fmt.Errorf("runtime: delta reconfiguring: %w", err)
		}
	}
	res, err := r.conf.ReconfigureAtContext(ctx, r.current, period)
	if err != nil {
		return fmt.Errorf("runtime: reconfiguring: %w", err)
	}
	return r.install(ctx, r.escalate(res, hour), hour)
}

// deltaUsable reports whether incremental reconfiguration can run: it is
// enabled, and a current result with a matching dependency index exists.
func (r *Runtime) deltaUsable() bool {
	return r.current != nil && r.depIndex != nil && r.conf.DeltaEnabled()
}

// affectedByEndpoint is the policy set an endpoint event touches (nil when
// delta is unusable, which makes reconfigureEvent solve fully).
func (r *Runtime) affectedByEndpoint(name string) map[int]bool {
	if !r.deltaUsable() {
		return nil
	}
	out := map[int]bool{}
	r.depIndex.AffectedByEndpoint(name, out)
	return out
}

// affectedByLink is the policy set whose installed assignments cross the
// link (nil when delta is unusable).
func (r *Runtime) affectedByLink(a, b topo.NodeID) map[int]bool {
	if !r.deltaUsable() {
		return nil
	}
	out := map[int]bool{}
	r.depIndex.AffectedByLink(a, b, out)
	return out
}

// matchingPolicies adds to out every policy whose source or destination
// EPG the endpoint currently matches (post-mutation membership; the
// dependency index only knows pre-mutation membership).
func (r *Runtime) matchingPolicies(name string, out map[int]bool) {
	ep, ok := r.topo.EndpointByName(name)
	if !ok {
		return
	}
	ls := labelSet(ep.Labels)
	for _, p := range r.graph.Policies {
		if covers(ls, p.Src) || covers(ls, p.Dst) {
			out[p.ID] = true
		}
	}
}

// escalate re-promotes reserved escalation paths for flows whose event
// counters already satisfy a stateful condition: a fresh solve always
// serves the default edge hard and the escalation soft, so installing it
// verbatim would silently de-escalate flows that tripped their condition
// earlier (the self-audit catches exactly this). Returns res unchanged
// when no flow is escalated.
func (r *Runtime) escalate(res *core.Result, hour int) *core.Result {
	var flows []escalation
	for flow, state := range r.counters {
		src, dst, ok := strings.Cut(flow, "->")
		if !ok {
			continue
		}
		pid, p := r.policyFor(src, dst)
		if p == nil {
			continue
		}
		edge, ok := compose.ActiveEdge(p, hour, state)
		if !ok {
			continue
		}
		edgeIdx := indexOfEdge(p, edge)
		if edgeIdx <= 0 {
			continue // default edge active; nothing to promote
		}
		flows = append(flows, escalation{pid, src, dst, edgeIdx})
	}
	return promote(res, flows...)
}

// escalation names a flow whose active edge is the non-default edgeIdx.
type escalation struct {
	pid      int
	src, dst string
	edgeIdx  int
}

// promote returns a copy of res in which each flow's assignment on its
// active edge is served hard and the one that was hard (the old default
// path) is demoted to a soft reservation. With no flows it returns res
// itself.
func promote(res *core.Result, flows ...escalation) *core.Result {
	if len(flows) == 0 {
		return res
	}
	clone := *res
	clone.Assignments = append([]core.Assignment(nil), res.Assignments...)
	for _, f := range flows {
		for i := range clone.Assignments {
			pa := &clone.Assignments[i]
			if pa.Policy != f.pid || pa.Src != f.src || pa.Dst != f.dst {
				continue
			}
			if pa.EdgeIdx == f.edgeIdx {
				pa.Role = core.HardEdge
			} else if pa.Role == core.HardEdge {
				pa.Role = core.SoftEdge
			}
		}
	}
	return &clone
}

// linkKey normalizes an undirected link to a map key.
func linkKey(a, b topo.NodeID) [2]topo.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topo.NodeID{a, b}
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
		affected := r.affectedByLink(a, b)
		if err := r.topo.RemoveLink(a, b); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoRemoveLink, A: a, B: b})
		r.failedLinks[linkKey(a, b)] = capacity
		// A removal can only delete paths: drop exactly the cached
		// enumerations that crossed the link.
		r.conf.InvalidateLinkPaths(a, b)
		return r.reconfigureEvent(ctx, r.current.Period, r.hour, affected)
	})
}

// RestoreLink re-adds a link previously removed by FailLink (or by a
// quarantine) at its remembered capacity and reconfigures so flows can
// move back onto their preferred paths.
func (r *Runtime) RestoreLink(ctx context.Context, a, b topo.NodeID) error {
	return r.journalOp(store.KindLinkRestore, func(rec *store.Record) error {
		capacity, ok := r.failedLinks[linkKey(a, b)]
		if !ok {
			return fmt.Errorf("runtime: link %d-%d was not failed", a, b)
		}
		if err := r.topo.AddLink(a, b, capacity); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		r.noteTopoOp(store.TopoOp{Op: store.TopoAddLink, A: a, B: b, Capacity: capacity})
		delete(r.failedLinks, linkKey(a, b))
		// An addition can create paths for any pair: the whole cache goes.
		r.conf.InvalidatePaths()
		// Restored capacity helps exactly the policies that lost out:
		// unsatisfied ones and those whose soft reservation was given up.
		// Satisfied policies stay frozen — keeping them off the restored
		// link is the path-stability tradeoff §5.4 argues for.
		var affected map[int]bool
		if r.deltaUsable() {
			affected = map[int]bool{}
			r.depIndex.AffectedUnsatisfied(affected)
			r.depIndex.AffectedSlackUsed(affected)
		}
		return r.reconfigureEvent(ctx, r.current.Period, r.hour, affected)
	})
}

// AdvanceTo moves the clock to hour h; if the composed graph changes
// periods in between, each boundary's configuration is applied in order.
// On error the clock stops at the last successfully applied boundary.
func (r *Runtime) AdvanceTo(ctx context.Context, h int) error {
	return r.journalOp(store.KindTick, func(rec *store.Record) error {
		if h < 0 || h >= policy.HoursPerDay {
			return fmt.Errorf("runtime: hour %d out of range", h)
		}
		periods := r.graph.Periods()
		// Collect boundaries crossed while walking forward from r.hour to h.
		cur := r.hour
		for cur != h {
			cur = (cur + 1) % policy.HoursPerDay
			if containsInt(periods, cur) {
				// The boundary affects policies whose edge sets change
				// across it, plus the unsatisfied/unreserved ones that may
				// fit into whatever the closing windows free up.
				var affected map[int]bool
				if r.deltaUsable() {
					affected = r.conf.TemporalAffected(r.current.Period, cur)
					r.depIndex.AffectedUnsatisfied(affected)
					r.depIndex.AffectedSlackUsed(affected)
				}
				if err := r.reconfigureEvent(ctx, cur, cur, affected); err != nil {
					return fmt.Errorf("runtime: period transition at %dh: %w", cur, err)
				}
				r.hour = cur
			}
		}
		r.hour = h
		return nil
	})
}

// ReportEvent increments a flow's event counter (e.g. a failed connection
// observed at an IDS) and, when a stateful policy's escalation condition
// fires, reroutes the flow onto its pre-reserved escalation path without
// re-solving (§5.3: "it could reserve paths for changed policy beforehand
// ... no other policy will have to change its path").
func (r *Runtime) ReportEvent(ctx context.Context, src, dst string, ev policy.Event, delta int) error {
	return r.journalOp(store.KindCounter, func(rec *store.Record) error {
		flow := src + "->" + dst
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
		was, wasOK := compose.ActiveEdge(p, r.hour, r.counters[flow])
		r.counters[flow][ev] += delta
		rec.Counter = &store.CounterDelta{Src: src, Dst: dst, Event: ev, Delta: delta}
		edge, ok := compose.ActiveEdge(p, r.hour, r.counters[flow])
		if !ok {
			return nil // no active edge: traffic dropped by policy
		}
		edgeIdx := indexOfEdge(p, edge)
		if edgeIdx <= 0 {
			return nil // default edge active; nothing to reroute
		}
		if wasOK && indexOfEdge(p, was) == edgeIdx {
			// The count moved but not the active edge — every temporal edge
			// past the first window is a non-default one — and what is
			// installed already serves it.
			return nil
		}
		rec.Kind = store.KindEscalate
		// Locate the reserved soft assignment for this (policy, edge, pair).
		for _, a := range r.current.Assignments {
			if a.Policy == pid && a.EdgeIdx == edgeIdx && a.Src == src && a.Dst == dst {
				// Promote the reservation to installed rules for this flow.
				r.metrics.StatefulReroutes++
				return r.install(ctx, promote(r.current, escalation{pid, src, dst, edgeIdx}), r.hour)
			}
		}
		// No reservation (ξ was 1): a re-solve is needed — scoped to the
		// escalating policy when delta is usable.
		var affected map[int]bool
		if r.deltaUsable() {
			affected = map[int]bool{pid: true}
		}
		return r.reconfigureEvent(ctx, r.current.Period, r.hour, affected)
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
	srcSet := labelSet(srcEP.Labels)
	dstSet := labelSet(dstEP.Labels)
	for _, p := range r.graph.Policies {
		if covers(srcSet, p.Src) && covers(dstSet, p.Dst) {
			return p.ID, p
		}
	}
	return -1, nil
}

// UpdateGraph swaps in a new composed policy graph (graph churn, §2.2) and
// reconfigures with path-change minimization against the previous state.
func (r *Runtime) UpdateGraph(ctx context.Context, g *compose.Graph, cfg core.Config) error {
	return r.journalOp(store.KindConfigure, func(rec *store.Record) error {
		conf, err := core.New(r.topo, g, cfg)
		if err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		r.conf = conf
		r.graph = g
		r.adapter = dataplane.NewGraphAdapter(g)
		// The old dependency index speaks the old graph's policy IDs; drop
		// it NOW, not at install, so a failed reconfiguration cannot leave
		// a stale index feeding wrong affected sets to later events. The
		// fresh Configurator likewise starts with an empty path cache.
		r.depIndex = nil
		// A graph swap re-journals the full topology and composed graph so
		// replay never depends on records older than the swap.
		rec.Topo = r.topo
		rec.Graph = g
		return r.reconfigure(ctx)
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

func labelSet(ls []string) map[string]bool {
	m := make(map[string]bool, len(ls))
	for _, l := range ls {
		m[l] = true
	}
	return m
}

func covers(have map[string]bool, epg policy.EPG) bool {
	for _, l := range epg.Labels {
		if !have[l] {
			return false
		}
	}
	return true
}

func indexOfEdge(p *compose.Policy, e policy.Edge) int {
	for i, cand := range p.AllEdges() {
		if cand.String() == e.String() {
			return i
		}
	}
	return -1
}

func containsInt(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}
