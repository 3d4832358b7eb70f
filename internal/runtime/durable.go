package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/store"
	"janus/internal/topo"
)

// Journal is the durable sink for runtime events; *store.Store satisfies
// it. A nil journal means the runtime is purely in-memory.
type Journal interface {
	Append(*store.Record) error
}

// NewDurable starts a runtime like New and journals its initial
// configuration plus every subsequent mutation: each mutator appends one
// record (write + fsync) before acknowledging, so an acknowledged event is
// never lost to a crash.
func NewDurable(ctx context.Context, conf *core.Configurator, j Journal) (*Runtime, error) {
	r, err := New(ctx, conf)
	if err != nil {
		return nil, err
	}
	if err := r.EnableJournal(j); err != nil {
		return nil, err
	}
	return r, nil
}

// EnableJournal attaches a journal to a running runtime and appends its
// configuration as the first record. Callers whose snapshot source reads
// the runtime (the HTTP server) must make the runtime visible to that
// source BEFORE calling: the configure append can trigger an automatic
// snapshot whose LastSeq covers the configure record, and a snapshot taken
// without the runtime would make recovery skip the configuration entirely.
// On append failure the runtime stays usable but journal-free.
func (r *Runtime) EnableJournal(j Journal) error {
	r.journal = j
	rec := &store.Record{Kind: store.KindConfigure, Topo: r.topo, Graph: r.graph}
	r.fillRecord(rec)
	if err := j.Append(rec); err != nil {
		r.journal = nil
		return fmt.Errorf("runtime: journaling initial configuration: %w", err)
	}
	return nil
}

// Restore rebuilds a runtime from recovered durable state without
// re-solving: the journaled configuration result is recompiled into rules
// and installed on a fresh dataplane, and the composed graph, escalated
// chains, quarantine set, and remembered link capacities come back exactly
// as journaled. cfg is the solver configuration future reconfigurations
// will use; j (may be nil) is the journal for subsequent events.
func Restore(state *store.State, cfg core.Config, j Journal) (*Runtime, error) {
	if state == nil || state.Topo == nil || state.Graph == nil || state.Result == nil {
		return nil, fmt.Errorf("runtime: restore: state is missing topology, graph, or result")
	}
	conf, err := core.New(state.Topo, state.Graph, cfg)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore: %w", err)
	}
	r := &Runtime{
		conf:        conf,
		graph:       state.Graph,
		topo:        state.Topo,
		net:         dataplane.NewNetwork(state.Topo),
		adapter:     dataplane.NewGraphAdapter(state.Graph),
		hour:        state.Hour,
		counters:    state.Counters,
		retry:       DefaultRetryPolicy().normalize(),
		failedLinks: map[[2]topo.NodeID]float64{},
		quarantined: map[topo.NodeID]bool{},
	}
	if r.counters == nil {
		r.counters = map[string]map[policy.Event]int{}
	}
	for _, fl := range state.FailedLinks {
		r.failedLinks[linkKey(fl.From, fl.To)] = fl.CapacityMbps
	}
	for _, id := range state.Quarantined {
		r.quarantined[id] = true
	}
	if len(state.Metrics) > 0 {
		if err := json.Unmarshal(state.Metrics, &r.metrics); err != nil {
			return nil, fmt.Errorf("runtime: restore: decoding metrics: %w", err)
		}
	}

	// Reinstall the recovered configuration verbatim — recovery cost is
	// rule compilation, never a solve.
	rules := dataplane.CompileRules(r.topo, r.adapter, state.Result)
	plan := r.net.PlanUpdate(rules)
	if err := r.net.ApplyPlan(plan); err != nil {
		return nil, fmt.Errorf("runtime: restore: reinstalling rules: %w", err)
	}
	r.net.Recompile()
	r.current = state.Result
	// The dependency index and the (fresh Configurator's empty) path cache
	// are rebuilt from recovered state, never carried across the crash: a
	// stale index would compute affected sets against the wrong topology.
	r.depIndex = core.BuildDepIndex(r.topo, r.graph, state.Result)
	r.journal = j
	return r, nil
}

// State captures the full serializable runtime state: the snapshot source
// and the basis for recovery equivalence checks. Volatile wall-clock
// derivatives (solve duration, node rate) are zeroed so the same logical
// state always serializes to the same bytes.
func (r *Runtime) State() *store.State {
	return &store.State{
		Hour:        r.hour,
		Topo:        r.topo,
		Graph:       r.graph,
		Result:      normalizeResult(r.current),
		Counters:    r.counters,
		Quarantined: r.Quarantined(),
		FailedLinks: r.rememberedLinks(),
		Metrics:     r.marshalMetrics(),
	}
}

// RememberedLinks lists the links removed by failures or quarantines with
// the capacities RestoreLink would bring back, sorted, for /status.
func (r *Runtime) RememberedLinks() []store.FailedLink { return r.rememberedLinks() }

func (r *Runtime) rememberedLinks() []store.FailedLink {
	out := make([]store.FailedLink, 0, len(r.failedLinks))
	for k, c := range r.failedLinks {
		out = append(out, store.FailedLink{From: k[0], To: k[1], CapacityMbps: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// journalOp runs one public mutation and appends exactly one journal record
// for it before acknowledging. The record is built from post-mutation state,
// so even a failed event journals whatever it changed (counters bumped
// before a failing install, links removed by a cascading quarantine). A
// failed event that changed nothing at all appends no record: the
// unauthenticated HTTP API would otherwise let garbage POSTs grow the
// journal by one fsync'd rollback record each. An append failure is
// reported to the caller: the event happened in memory but is not durable,
// and the store has wedged itself against further appends.
func (r *Runtime) journalOp(kind store.Kind, fn func(rec *store.Record) error) error {
	if r.journal == nil {
		return fn(&store.Record{})
	}
	r.pendingOps = nil
	quarBefore := len(r.quarantined)
	hourBefore := r.hour
	curBefore := r.current
	metBefore := r.metrics
	rec := &store.Record{Kind: kind}
	opErr := fn(rec)
	if opErr != nil {
		if len(r.pendingOps) == 0 && rec.Counter == nil && rec.Graph == nil &&
			len(r.quarantined) == quarBefore && r.hour == hourBefore &&
			r.current == curBefore && metricScalarsEqual(metBefore, r.metrics) {
			return opErr
		}
		rec.Kind = store.KindRollback
		rec.Cause = opErr.Error()
	} else if len(r.quarantined) > quarBefore {
		rec.Kind = store.KindQuarantine
	}
	r.fillRecord(rec)
	if err := r.journal.Append(rec); err != nil {
		if opErr != nil {
			return fmt.Errorf("%v (and journal append failed: %w)", opErr, err)
		}
		return fmt.Errorf("runtime: event applied but not durable: %w", err)
	}
	return opErr
}

// metricScalarsEqual reports whether two metrics snapshots agree on every
// scalar counter (TierHistory/TierCounts change only alongside a result
// swap, which journalOp detects separately). Used to decide whether a
// failed event mutated anything worth journaling.
func metricScalarsEqual(a, b Metrics) bool {
	a.TierHistory, b.TierHistory = nil, nil
	a.TierCounts, b.TierCounts = nil, nil
	return reflect.DeepEqual(a, b)
}

// fillRecord stamps the authoritative post-mutation state onto a record:
// the active result, accumulated topology deltas, and the full (small)
// quarantine and failed-link sets.
func (r *Runtime) fillRecord(rec *store.Record) {
	rec.Hour = r.hour
	rec.Result = normalizeResult(r.current)
	rec.TopoOps = r.pendingOps
	r.pendingOps = nil
	rec.Quarantined = r.Quarantined()
	rec.FailedLinks = r.rememberedLinks()
	if r.current != nil {
		rec.Tier = r.current.Tier.String()
	}
	rec.Metrics = r.marshalMetrics()
}

// noteTopoOp accumulates a topology delta for the record being journaled.
func (r *Runtime) noteTopoOp(op store.TopoOp) {
	if r.journal == nil {
		return
	}
	r.pendingOps = append(r.pendingOps, op)
}

// normalizeResult clones a result with its wall-clock solve duration zeroed
// and its link report canonically ordered (the solver emits links in map
// order), so journaled results are byte-reproducible across runs.
func normalizeResult(res *core.Result) *core.Result {
	if res == nil {
		return nil
	}
	clone := *res
	clone.Stats.Duration = 0
	clone.Links = append([]core.LinkUse(nil), res.Links...)
	sort.Slice(clone.Links, func(i, j int) bool {
		if clone.Links[i].From != clone.Links[j].From {
			return clone.Links[i].From < clone.Links[j].From
		}
		return clone.Links[i].To < clone.Links[j].To
	})
	return &clone
}

// marshalMetrics serializes the disruption counters with the wall-clock
// node rate zeroed.
func (r *Runtime) marshalMetrics() json.RawMessage {
	m := r.metrics // shallow: the history and counts are only read
	m.SolverNodeRate = 0
	b, err := json.Marshal(&m)
	if err != nil {
		return nil
	}
	return b
}
