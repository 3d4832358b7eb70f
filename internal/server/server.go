// Package server exposes Janus as an HTTP controller, realizing the Fig 7
// architecture: policy writers (or SDN applications) submit intent graphs
// to the northbound API, Janus composes and configures them, and the
// southbound state — flow rules per switch — is queryable by a control
// platform. Runtime events (mobility, membership changes, stateful
// counters, temporal ticks, link failures) arrive as POSTs to one handler,
// which decodes a runtime.Event and hands it to Runtime.Apply, the §5.4
// incremental reconfiguration machinery.
//
//	PUT    /graphs/{name}        submit or replace a policy graph
//	                             (JSON, or the intent language with
//	                             Content-Type: text/plain)
//	DELETE /graphs/{name}        remove a writer's graph
//	GET    /graphs               list submitted graphs
//	GET    /composed             the composed policy graph summary
//	POST   /configure            (re)compose and configure; returns summary
//	GET    /config               current configuration (assignments, links)
//	GET    /rules                per-switch flow rules
//	GET    /metrics              disruption counters
//	POST   /events/{kind}        one runtime event; kind and body:
//	       move                  {"endpoint": "...", "to": 3}
//	       relabel               {"endpoint": "...", "labels": ["..."]}
//	       counter               {"src": "...", "dst": "...", "event": "...", "delta": 1}
//	                             (a missing or zero delta counts 1)
//	       hour                  {"hour": 9}
//	       linkfail              {"from": 1, "to": 2}
//	       linkrestore           {"from": 1, "to": 2}
//	POST   /inject               install a dataplane fault plan (see
//	                             injectRequest); an empty body clears it
//	GET    /inject               the active fault plan and injector stats
//	GET    /status               controller liveness: quarantined switches,
//	                             remembered link capacities, recovery info
//
// With a store attached (AttachStore), every northbound mutation — writer
// graph PUT/DELETE and every runtime event — is journaled durably before it
// is acknowledged, and boot restores the last recovered state.
//
// All handlers are safe for concurrent use; state is guarded by one mutex
// (configuration solves dominate, so finer locking buys nothing).
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/intent"
	"janus/internal/policy"
	"janus/internal/runtime"
	"janus/internal/store"
	"janus/internal/topo"
)

// Server is the Janus HTTP controller. Fields above mu are immutable after
// New; mu guards the fields below it (the layout convention enforced by
// januslint's lockorder).
type Server struct {
	topo *topo.Topology
	cfg  core.Config
	mux  *http.ServeMux

	mu     sync.Mutex
	graphs map[string]*policy.Graph
	rt     *runtime.Runtime // nil until the first successful /configure
	st     *store.Store     // nil unless AttachStore wired durability in
}

// New builds a controller for the given topology and solver configuration.
func New(t *topo.Topology, cfg core.Config) (*Server, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		topo:   t,
		cfg:    cfg,
		graphs: map[string]*policy.Graph{},
		mux:    http.NewServeMux(),
	}
	s.routes()
	return s, nil
}

// AttachStore wires a durability store into the controller. Any state the
// store recovered is restored first — writer graphs always, and the full
// runtime (composed graph, escalated chains, quarantine set, remembered
// link capacities) whenever a configuration was journaled — then the store
// becomes the journal for every subsequent northbound mutation. A recovered
// runtime that fails its reinstall attaches nothing. Call once, before
// serving.
func (s *Server) AttachStore(st *store.Store) error {
	state := st.RecoveredState()
	// The runtime reinstalls through the install's retrying apply, which
	// may sleep between attempts; it reads only immutable fields of s, so
	// it is restored before the lock is taken.
	var rt *runtime.Runtime
	if state != nil && state.Result != nil {
		var err error
		if rt, err = runtime.Restore(state, s.cfg, st); err != nil {
			return fmt.Errorf("server: restoring runtime: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if state != nil {
		for name, g := range state.Writers {
			s.graphs[name] = g
		}
	}
	if rt != nil {
		s.rt = rt
	}
	s.st = st
	st.SetSnapshotSource(s.snapshotStateLocked)
	return nil
}

// snapshotStateLocked assembles the full durable state: the runtime's view
// plus the northbound writer-graph registry. It runs from store.Append —
// whose callers all hold s.mu — and from the shutdown snapshot after the
// listener has drained, so it must not take s.mu itself (that would
// self-deadlock under Append).
func (s *Server) snapshotStateLocked() *store.State {
	state := &store.State{}
	if s.rt != nil {
		state = s.rt.State()
	}
	if len(s.graphs) > 0 {
		writers := make(map[string]*policy.Graph, len(s.graphs))
		for name, g := range s.graphs {
			writers[name] = g
		}
		state.Writers = writers
	}
	return state
}

// Checkpoint snapshots the durable state and closes the store; janusd calls
// it on graceful shutdown, after the HTTP listener has drained, so the next
// boot loads the snapshot and replays zero records. Without an attached
// store it is a no-op.
func (s *Server) Checkpoint() error {
	s.mu.Lock()
	st := s.st
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	if err := st.SnapshotNow(); err != nil {
		closeErr := st.Close()
		if closeErr != nil {
			return fmt.Errorf("server: shutdown snapshot: %v (and close: %w)", err, closeErr)
		}
		return fmt.Errorf("server: shutdown snapshot: %w", err)
	}
	return st.Close()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("/graphs/", s.handleGraph)
	s.mux.HandleFunc("/graphs", s.handleGraphList)
	s.mux.HandleFunc("/composed", s.handleComposed)
	s.mux.HandleFunc("/configure", s.handleConfigure)
	s.mux.HandleFunc("/config", s.handleConfig)
	s.mux.HandleFunc("/rules", s.handleRules)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/events/{kind}", s.handleEvent)
	s.mux.HandleFunc("/inject", s.handleInject)
	s.mux.HandleFunc("/status", s.handleStatus)
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/graphs/")
	if name == "" {
		httpError(w, http.StatusBadRequest, "graph name missing in path")
		return
	}
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			httpError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		var g *policy.Graph
		if strings.HasPrefix(r.Header.Get("Content-Type"), "text/plain") {
			g, err = intent.Parse(string(body))
		} else {
			g = &policy.Graph{}
			err = json.Unmarshal(body, g)
		}
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		g.Name = name
		if err := g.Validate(); err != nil {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		s.mu.Lock()
		s.graphs[name] = g
		err = s.journalWriterLocked(store.KindWriterPut, name, g)
		s.mu.Unlock()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "graph accepted in memory but not durable: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"graph": name, "edges": len(g.Edges)})
	case http.MethodDelete:
		s.mu.Lock()
		_, existed := s.graphs[name]
		delete(s.graphs, name)
		var err error
		if existed {
			err = s.journalWriterLocked(store.KindWriterDelete, name, nil)
		}
		s.mu.Unlock()
		if !existed {
			httpError(w, http.StatusNotFound, "graph %q not found", name)
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, "graph deleted in memory but not durable: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
	default:
		httpError(w, http.StatusMethodNotAllowed, "use PUT or DELETE")
	}
}

// journalWriterLocked appends a writer-graph record (PUT carries the graph,
// DELETE just the name) before the change is acknowledged. Callers hold
// s.mu. A nil store makes it a no-op.
func (s *Server) journalWriterLocked(kind store.Kind, name string, g *policy.Graph) error {
	if s.st == nil {
		return nil
	}
	return s.st.Append(&store.Record{Kind: kind, Writer: name, WriterGraph: g})
}

func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.graphs))
	for n := range s.graphs {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"graphs": names})
}

func (s *Server) composeLocked() (*compose.Graph, error) {
	inputs := make([]*policy.Graph, 0, len(s.graphs))
	names := make([]string, 0, len(s.graphs))
	for n := range s.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		inputs = append(inputs, s.graphs[n])
	}
	return compose.New(s.cfg.Scheme).Compose(inputs...)
}

func (s *Server) handleComposed(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	s.mu.Lock()
	cg, err := s.composeLocked()
	s.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	type policySummary struct {
		ID      int      `json:"id"`
		Src     string   `json:"src"`
		Dst     string   `json:"dst"`
		Edges   int      `json:"edges"`
		Writers []string `json:"writers"`
	}
	out := struct {
		Policies  []policySummary `json:"policies"`
		Conflicts []string        `json:"conflicts,omitempty"`
		Periods   []int           `json:"periods"`
	}{Periods: cg.Periods()}
	for _, p := range cg.Policies {
		out.Policies = append(out.Policies, policySummary{
			ID: p.ID, Src: p.Src.Key(), Dst: p.Dst.Key(),
			Edges: 1 + len(p.NonDefault), Writers: p.Writers,
		})
	}
	for _, c := range cg.Conflicts {
		out.Conflicts = append(out.Conflicts, c.String())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleConfigure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cg, err := s.composeLocked()
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if s.rt == nil {
		conf, err := core.New(s.topo, cg, s.cfg)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		rt, err := runtime.New(r.Context(), conf) //janus:allow(lockorder): retry backoff sleeps under the config lock by design (bounded by Cap, aborts on cancellation)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		// Publish the runtime to the snapshot source BEFORE its configure
		// record is journaled: the append can trigger an automatic snapshot
		// whose LastSeq covers that record, and a snapshot taken while s.rt
		// is still nil would make recovery skip the configuration.
		s.rt = rt
		if s.st != nil {
			if err := rt.EnableJournal(s.st); err != nil {
				s.rt = nil
				httpError(w, http.StatusInternalServerError, "%v", err)
				return
			}
		}
	} else if err := s.rt.UpdateGraph(r.Context(), cg, s.cfg); err != nil { //janus:allow(lockorder): retry backoff sleeps under the config lock by design (bounded by Cap, aborts on cancellation)
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	res := s.rt.Current()
	writeJSON(w, http.StatusOK, map[string]any{
		"satisfied": res.SatisfiedCount(),
		"policies":  len(res.Configured),
		"status":    res.Status.String(),
		"tier":      res.Tier.String(),
	})
}

// requireRuntimeLocked returns the runtime or writes a 409. Callers must
// hold s.mu.
func (s *Server) requireRuntimeLocked(w http.ResponseWriter) *runtime.Runtime {
	if s.rt == nil {
		httpError(w, http.StatusConflict, "no configuration yet; POST /configure first")
		return nil
	}
	return s.rt
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rt := s.requireRuntimeLocked(w)
	if rt == nil {
		return
	}
	res := rt.Current()
	type asg struct {
		Policy int     `json:"policy"`
		Src    string  `json:"src"`
		Dst    string  `json:"dst"`
		Path   string  `json:"path"`
		BW     float64 `json:"bwMbps"`
		Role   string  `json:"role"`
	}
	out := struct {
		Period      int            `json:"period"`
		Satisfied   int            `json:"satisfied"`
		Configured  map[int]bool   `json:"configured"`
		Assignments []asg          `json:"assignments"`
		Links       []core.LinkUse `json:"links"`
	}{Period: res.Period, Satisfied: res.SatisfiedCount(), Configured: res.Configured, Links: res.Links}
	for _, a := range res.Assignments {
		role := "hard"
		if a.Role == core.SoftEdge {
			role = "reserved"
		}
		out.Assignments = append(out.Assignments, asg{
			Policy: a.Policy, Src: a.Src, Dst: a.Dst,
			Path: a.Path.Key(), BW: a.BW, Role: role,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rt := s.requireRuntimeLocked(w)
	if rt == nil {
		return
	}
	out := map[string][]dataplane.Rule{}
	for _, sw := range rt.Network().Switches() {
		rules := rt.Network().RulesAt(sw)
		if len(rules) > 0 {
			out[fmt.Sprint(sw)] = rules
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rt := s.requireRuntimeLocked(w)
	if rt == nil {
		return
	}
	out := struct {
		runtime.Metrics
		Tier        string                  `json:"tier"`
		Quarantined []topo.NodeID           `json:"quarantined,omitempty"`
		Crashed     []topo.NodeID           `json:"crashed,omitempty"`
		FaultStats  dataplane.FaultStats    `json:"faultStats"`
		Fastpath    dataplane.FastpathStats `json:"fastpath"`
		Durability  *durabilityMetrics      `json:"durability,omitempty"`
	}{
		Metrics:     rt.Metrics(),
		Tier:        rt.Current().Tier.String(),
		Quarantined: rt.Quarantined(),
		Crashed:     rt.Network().CrashedSwitches(),
		FaultStats:  rt.Network().FaultStats(),
		Fastpath:    rt.Network().FastpathStats(),
		Durability:  s.durabilityMetricsLocked(),
	}
	writeJSON(w, http.StatusOK, out)
}

// durabilityMetrics surfaces the store's counters on /metrics: journal
// appends, fsyncs, snapshots taken, and how long boot recovery took.
type durabilityMetrics struct {
	store.Stats
	RecoveryMillis int64 `json:"recoveryMillis"`
}

func (s *Server) durabilityMetricsLocked() *durabilityMetrics {
	if s.st == nil {
		return nil
	}
	return &durabilityMetrics{
		Stats:          s.st.Stats(),
		RecoveryMillis: s.st.RecoveryInfo().Duration.Milliseconds(),
	}
}

// handleStatus reports controller liveness without requiring a
// configuration: the policy hour, serving tier, quarantined switch IDs,
// the link capacities remembered for restoration, and — with a store
// attached — what recovery found at boot.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := struct {
		Configured      bool                `json:"configured"`
		Hour            int                 `json:"hour"`
		Tier            string              `json:"tier,omitempty"`
		Quarantined     []topo.NodeID       `json:"quarantined"`
		RememberedLinks []store.FailedLink  `json:"rememberedLinks"`
		Durable         bool                `json:"durable"`
		Recovery        *store.RecoveryInfo `json:"recovery,omitempty"`
	}{
		Quarantined:     []topo.NodeID{},
		RememberedLinks: []store.FailedLink{},
	}
	if s.rt != nil {
		out.Configured = true
		out.Hour = s.rt.Hour()
		out.Tier = s.rt.Current().Tier.String()
		out.Quarantined = s.rt.Quarantined()
		out.RememberedLinks = s.rt.RememberedLinks()
	}
	if s.st != nil {
		out.Durable = true
		info := s.st.RecoveryInfo()
		out.Recovery = &info
	}
	writeJSON(w, http.StatusOK, out)
}

// handleEvent decodes the body of a runtime event of the kind the path
// names and applies it under the lock, returning the updated satisfaction
// summary. The request's context is threaded through so a dropped client
// aborts the solve.
func (s *Server) handleEvent(w http.ResponseWriter, r *http.Request) {
	ev := runtime.Event{Kind: r.PathValue("kind")}
	if !slices.Contains(runtime.EventKinds, ev.Kind) {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&ev); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rt := s.requireRuntimeLocked(w)
	if rt == nil {
		return
	}
	if err := rt.Apply(r.Context(), ev); err != nil { //janus:allow(lockorder): event handlers solve and retry (ctx-aware backoff sleeps) under the config lock by design
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	res := rt.Current()
	writeJSON(w, http.StatusOK, map[string]any{
		"satisfied":   res.SatisfiedCount(),
		"policies":    len(res.Configured),
		"pathChanges": rt.PathChanges(),
		"tier":        res.Tier.String(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
