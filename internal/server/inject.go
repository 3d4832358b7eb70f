package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"time"

	"janus/internal/dataplane"
	"janus/internal/topo"
)

// injectRequest is the wire form of a dataplane.FaultPlan. Map-typed plan
// fields (keyed by switch or link) are flattened to lists so the request
// is plain JSON; latencies are milliseconds.
type injectRequest struct {
	Seed    int64 `json:"seed"`
	Default struct {
		FailRate    float64 `json:"failRate"`
		OpLatencyMs int     `json:"opLatencyMs"`
	} `json:"default"`
	Switches      []switchFaults `json:"switches"`
	CrashAfterOps []crashAfter   `json:"crashAfterOps"`
	FlakyLinks    []flakyLink    `json:"flakyLinks"`
}

// switchFaults is one switch's dataplane.SwitchFaults on the wire.
type switchFaults struct {
	Switch      topo.NodeID `json:"switch"`
	FailRate    float64     `json:"failRate"`
	OpLatencyMs int         `json:"opLatencyMs"`
}

// crashAfter schedules a switch crash after its ops-th operation.
type crashAfter struct {
	Switch topo.NodeID `json:"switch"`
	Ops    int         `json:"ops"`
}

// flakyLink fails installs on one directed link at FailRate.
type flakyLink struct {
	From     topo.NodeID `json:"from"`
	To       topo.NodeID `json:"to"`
	FailRate float64     `json:"failRate"`
}

// plan converts the wire form into a dataplane.FaultPlan.
func (req injectRequest) plan() dataplane.FaultPlan {
	plan := dataplane.FaultPlan{
		Seed: req.Seed,
		Default: dataplane.SwitchFaults{
			FailRate:  req.Default.FailRate,
			OpLatency: time.Duration(req.Default.OpLatencyMs) * time.Millisecond,
		},
	}
	for _, sw := range req.Switches {
		if plan.Switches == nil {
			plan.Switches = map[topo.NodeID]dataplane.SwitchFaults{}
		}
		plan.Switches[sw.Switch] = dataplane.SwitchFaults{
			FailRate:  sw.FailRate,
			OpLatency: time.Duration(sw.OpLatencyMs) * time.Millisecond,
		}
	}
	for _, c := range req.CrashAfterOps {
		if plan.CrashAfterOps == nil {
			plan.CrashAfterOps = map[topo.NodeID]int{}
		}
		plan.CrashAfterOps[c.Switch] = c.Ops
	}
	for _, l := range req.FlakyLinks {
		if plan.FlakyLinks == nil {
			plan.FlakyLinks = map[[2]topo.NodeID]float64{}
		}
		plan.FlakyLinks[[2]topo.NodeID{l.From, l.To}] = l.FailRate
	}
	return plan
}

// injectView renders the active plan back in the wire form.
func injectView(plan dataplane.FaultPlan, active bool, stats dataplane.FaultStats) map[string]any {
	out := map[string]any{
		"active": active,
		"stats":  stats,
	}
	if !active {
		return out
	}
	var req injectRequest
	req.Seed = plan.Seed
	req.Default.FailRate = plan.Default.FailRate
	req.Default.OpLatencyMs = int(plan.Default.OpLatency / time.Millisecond)
	ids := make([]topo.NodeID, 0, len(plan.Switches))
	for id := range plan.Switches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := plan.Switches[id]
		req.Switches = append(req.Switches, switchFaults{id, f.FailRate, int(f.OpLatency / time.Millisecond)})
	}
	ids = ids[:0]
	for id := range plan.CrashAfterOps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		req.CrashAfterOps = append(req.CrashAfterOps, crashAfter{id, plan.CrashAfterOps[id]})
	}
	links := make([][2]topo.NodeID, 0, len(plan.FlakyLinks))
	for l := range plan.FlakyLinks {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	for _, l := range links {
		req.FlakyLinks = append(req.FlakyLinks, flakyLink{l[0], l[1], plan.FlakyLinks[l]})
	}
	out["plan"] = req
	return out
}

// handleInject installs (POST) or reports (GET) the dataplane fault plan.
// POSTing an all-zero plan clears injection.
func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		defer s.mu.Unlock()
		rt := s.requireRuntimeLocked(w)
		if rt == nil {
			return
		}
		plan, active := rt.Network().FaultPlanActive()
		writeJSON(w, http.StatusOK, injectView(plan, active, rt.Network().FaultStats()))
	case http.MethodPost:
		var req injectRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil && err != io.EOF {
			httpError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		rt := s.requireRuntimeLocked(w)
		if rt == nil {
			return
		}
		rt.Network().InjectFaults(req.plan())
		plan, active := rt.Network().FaultPlanActive()
		writeJSON(w, http.StatusOK, injectView(plan, active, rt.Network().FaultStats()))
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}
