// Package store is janusd's durability layer: a length+CRC32-framed,
// fsync'd write-ahead journal of runtime events plus periodic atomic
// snapshots of the full runtime state, in the shape of OPA's transactional
// storage with bundle activation. Recovery loads the newest valid snapshot
// and replays the journal suffix, truncating at the first torn or corrupt
// record, so recovery cost scales with the log written since the last
// snapshot rather than with the history of the deployment.
//
// Records are state deltas, not solver inputs: each one carries the
// post-mutation configuration result, the authoritative quarantine and
// failed-link sets, topology deltas, and counter deltas, so replay
// reconstructs runtime state bit-for-bit without ever re-running the
// optimizer. The filesystem is abstracted (FS) so the seeded CrashFS can
// kill writes mid-record at every injected crash point; `make crashsoak`
// sweeps those points and asserts recovery always lands on a journal
// boundary whose state matches a never-crashed reference runtime exactly.
package store

import (
	"encoding/json"
	"fmt"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/policy"
	"janus/internal/topo"
)

// Kind classifies a journal record by the runtime event that produced it.
type Kind string

// Journal record kinds. Replay does not branch on the kind beyond
// separating writer-graph records from runtime records — every runtime
// record carries its full authoritative delta — but the kind makes the
// journal auditable by operators.
const (
	// KindConfigure is an initial configuration or a composed-graph swap:
	// the record carries the full topology and composed graph.
	KindConfigure Kind = "configure"
	// KindReconfigure is a mobility or membership event that re-solved.
	KindReconfigure Kind = "reconfigure"
	// KindLinkFail and KindLinkRestore bracket a link failure.
	KindLinkFail    Kind = "linkfail"
	KindLinkRestore Kind = "linkrestore"
	// KindTick is a clock advance, including any temporal-period
	// transitions (tier changes ride along in the result and metrics).
	KindTick Kind = "tick"
	// KindCounter is a stateful-event count that left the flow's active
	// edge as it was.
	KindCounter Kind = "counter"
	// KindEscalate is a stateful-event count that changed the flow's
	// active edge, and the re-solve that served it.
	KindEscalate Kind = "escalate"
	// KindQuarantine marks an event whose install quarantined a switch.
	KindQuarantine Kind = "quarantine"
	// KindRollback records an event that failed and was rolled back; its
	// deltas capture whatever partial state (topology changes, counters,
	// quarantines, metrics) survived the rollback.
	KindRollback Kind = "rollback"
	// KindWriterPut / KindWriterDelete journal a policy writer's graph
	// submission or removal on the server's northbound API.
	KindWriterPut    Kind = "writerput"
	KindWriterDelete Kind = "writerdel"
)

// TopoOp is one topology mutation, replayed through the same topo methods
// the live runtime used.
type TopoOp struct {
	Op       string      `json:"op"`
	Endpoint string      `json:"endpoint,omitempty"`
	Node     topo.NodeID `json:"node,omitempty"`
	Labels   []string    `json:"labels,omitempty"`
	A        topo.NodeID `json:"a,omitempty"`
	B        topo.NodeID `json:"b,omitempty"`
	Capacity float64     `json:"capacityMbps,omitempty"`
}

// Topology operation names.
const (
	TopoMove       = "move"
	TopoRelabel    = "relabel"
	TopoRemoveLink = "remove-link"
	TopoAddLink    = "add-link"
)

// FailedLink remembers the capacity of a removed link so recovery can
// restore it on demand, exactly as the live runtime would have.
type FailedLink struct {
	From         topo.NodeID `json:"from"`
	To           topo.NodeID `json:"to"`
	CapacityMbps float64     `json:"capacityMbps"`
}

// CounterDelta is one stateful event-counter increment.
type CounterDelta struct {
	Src   string       `json:"src"`
	Dst   string       `json:"dst"`
	Event policy.Event `json:"event"`
	Delta int          `json:"delta"`
}

// Record is one framed journal entry: the event that happened plus the
// state deltas needed to reconstruct the post-event runtime without
// re-solving. Quarantined, FailedLinks, and Metrics are authoritative full
// values (they are small); the topology and counters are deltas.
type Record struct {
	// Seq is the journal sequence number, assigned by Append; records
	// replay strictly in sequence and a gap truncates recovery.
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`
	Hour int    `json:"hour"`
	// Cause carries the event's error text for rollback records.
	Cause string `json:"cause,omitempty"`

	// Result is the active configuration after the event (volatile solve
	// timings zeroed so recovery is byte-reproducible).
	Result *core.Result `json:"result,omitempty"`
	// Topo and Graph are present on configure records only: the full
	// topology and composed policy graph the configuration was solved for.
	Topo  *topo.Topology `json:"topo,omitempty"`
	Graph *compose.Graph `json:"graph,omitempty"`

	TopoOps     []TopoOp        `json:"topoOps,omitempty"`
	Counter     *CounterDelta   `json:"counter,omitempty"`
	Quarantined []topo.NodeID   `json:"quarantined,omitempty"`
	FailedLinks []FailedLink    `json:"failedLinks,omitempty"`
	Tier        string          `json:"tier,omitempty"`
	Metrics     json.RawMessage `json:"metrics,omitempty"`

	// Writer names the policy writer for writer-graph records.
	Writer      string        `json:"writer,omitempty"`
	WriterGraph *policy.Graph `json:"writerGraph,omitempty"`
}

// State is the full serializable runtime state: what a snapshot holds and
// what recovery hands back. Runtime fields reconstruct the engine
// (Runtime.Restore); Writers reconstructs the server's northbound graph
// registry.
type State struct {
	Hour        int                             `json:"hour"`
	Topo        *topo.Topology                  `json:"topo,omitempty"`
	Graph       *compose.Graph                  `json:"graph,omitempty"`
	Result      *core.Result                    `json:"result,omitempty"`
	Counters    map[string]map[policy.Event]int `json:"counters,omitempty"`
	Quarantined []topo.NodeID                   `json:"quarantined,omitempty"`
	FailedLinks []FailedLink                    `json:"failedLinks,omitempty"`
	Metrics     json.RawMessage                 `json:"metrics,omitempty"`
	Writers     map[string]*policy.Graph        `json:"writers,omitempty"`
}

// Replay folds journal records (in sequence order) into a starting state —
// nil means the empty pre-boot state — and returns the reconstructed
// state. Replay never re-runs the solver: records carry post-state.
func Replay(start *State, records []*Record) (*State, error) {
	state := start
	if state == nil {
		state = &State{}
	}
	for _, rec := range records {
		if err := apply(state, rec); err != nil {
			return nil, fmt.Errorf("store: replaying record %d (%s): %w", rec.Seq, rec.Kind, err)
		}
	}
	return state, nil
}

// apply folds one record into the state.
func apply(state *State, rec *Record) error {
	switch rec.Kind {
	case KindWriterPut:
		if rec.Writer == "" || rec.WriterGraph == nil {
			return fmt.Errorf("writer record missing name or graph")
		}
		if state.Writers == nil {
			state.Writers = map[string]*policy.Graph{}
		}
		state.Writers[rec.Writer] = rec.WriterGraph
		return nil
	case KindWriterDelete:
		delete(state.Writers, rec.Writer)
		return nil
	}

	// Runtime records: configure records refresh topology and graph
	// wholesale; every record's topology deltas, counter delta, and
	// authoritative sets then apply on top.
	if rec.Topo != nil {
		state.Topo = rec.Topo
	}
	if rec.Graph != nil {
		state.Graph = rec.Graph
	}
	if len(rec.TopoOps) > 0 && state.Topo == nil {
		return fmt.Errorf("topology delta before any configure record")
	}
	for _, op := range rec.TopoOps {
		if err := applyTopoOp(state.Topo, op); err != nil {
			return err
		}
	}
	if rec.Counter != nil {
		if state.Counters == nil {
			state.Counters = map[string]map[policy.Event]int{}
		}
		flow := core.FlowKey(rec.Counter.Src, rec.Counter.Dst)
		if state.Counters[flow] == nil {
			state.Counters[flow] = map[policy.Event]int{}
		}
		state.Counters[flow][rec.Counter.Event] += rec.Counter.Delta
	}
	if rec.Result != nil {
		state.Result = rec.Result
	}
	state.Hour = rec.Hour
	state.Quarantined = rec.Quarantined
	state.FailedLinks = rec.FailedLinks
	state.Metrics = rec.Metrics
	return nil
}

func applyTopoOp(t *topo.Topology, op TopoOp) error {
	switch op.Op {
	case TopoMove:
		return t.MoveEndpoint(op.Endpoint, op.Node)
	case TopoRelabel:
		return t.RelabelEndpoint(op.Endpoint, op.Labels...)
	case TopoRemoveLink:
		return t.RemoveLink(op.A, op.B)
	case TopoAddLink:
		return t.AddLink(op.A, op.B, op.Capacity)
	default:
		return fmt.Errorf("unknown topology op %q", op.Op)
	}
}
