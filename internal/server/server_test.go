package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"janus/internal/core"
	"janus/internal/policy"
	"janus/internal/topo"
)

// newTestServer builds a controller over a diamond topology with an H-IDS.
func newTestServer(t *testing.T) (*Server, *topo.Topology) {
	t.Helper()
	tp := topo.NewTopology("srv")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	mid := tp.AddSwitch("mid")
	hids := tp.AddNF("hids", policy.HeavyIDS)
	link := func(x, y topo.NodeID) {
		t.Helper()
		if err := tp.AddLink(x, y, 1000); err != nil {
			t.Fatal(err)
		}
	}
	link(a, b)
	link(a, mid)
	link(mid, hids)
	link(hids, b)
	link(mid, b)
	if err := tp.AddEndpoint("c1", a, "Clients"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv1", b, "Web"); err != nil {
		t.Fatal(err)
	}
	s, err := New(tp, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s, tp
}

// testServer wraps newTestServer in an httptest server.
func testServer(t *testing.T) (*httptest.Server, *topo.Topology) {
	t.Helper()
	s, tp := newTestServer(t)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, tp
}

func do(t *testing.T, method, url, contentType, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

const intentBody = `graph ignored
Clients -> Web: minbw 20Mbps; default
Clients -> Web: chain H-IDS; minbw 20Mbps; when failed-connections >= 5
`

func TestSubmitConfigureQuery(t *testing.T) {
	ts, _ := testServer(t)

	// Submit an intent-language graph.
	code, body := do(t, http.MethodPut, ts.URL+"/graphs/web", "text/plain", intentBody)
	if code != http.StatusOK {
		t.Fatalf("PUT graph: %d %v", code, body)
	}
	// List.
	code, body = do(t, http.MethodGet, ts.URL+"/graphs", "", "")
	if code != http.StatusOK || len(body["graphs"].([]any)) != 1 {
		t.Fatalf("GET graphs: %d %v", code, body)
	}
	// Composed summary.
	code, body = do(t, http.MethodGet, ts.URL+"/composed", "", "")
	if code != http.StatusOK {
		t.Fatalf("GET composed: %d %v", code, body)
	}
	if n := len(body["policies"].([]any)); n != 1 {
		t.Fatalf("composed policies = %d, want 1", n)
	}
	// Configure.
	code, body = do(t, http.MethodPost, ts.URL+"/configure", "", "")
	if code != http.StatusOK {
		t.Fatalf("POST configure: %d %v", code, body)
	}
	if sat := body["satisfied"].(float64); sat != 1 {
		t.Fatalf("satisfied = %v, want 1", sat)
	}
	// Config details.
	code, body = do(t, http.MethodGet, ts.URL+"/config", "", "")
	if code != http.StatusOK {
		t.Fatalf("GET config: %d %v", code, body)
	}
	if asgs := body["assignments"].([]any); len(asgs) < 2 {
		t.Fatalf("want hard + reserved assignments, got %v", asgs)
	}
	// The link report is sorted by (From, To) where the solve makes it.
	links := body["links"].([]any)
	for i := 1; i < len(links); i++ {
		p, l := links[i-1].(map[string]any), links[i].(map[string]any)
		if p["From"].(float64) > l["From"].(float64) || p["From"] == l["From"] && p["To"].(float64) >= l["To"].(float64) {
			t.Errorf("config links %v then %v: not sorted by (From, To)", p, l)
		}
	}
	// Rules present.
	code, body = do(t, http.MethodGet, ts.URL+"/rules", "", "")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("GET rules: %d %v", code, body)
	}
}

// TestConfigureSolvesOnlyChangedPolicies drives graph churn through the
// routes: POST /configure with the writers unchanged solves fully, the
// operator's way to ask for a global re-optimisation, while a PUT that
// redraws one writer's bandwidth, then POST /configure, re-solves only
// that writer's policy.
func TestConfigureSolvesOnlyChangedPolicies(t *testing.T) {
	s, tp := newTestServer(t)
	if err := tp.AddEndpoint("db1", 2, "DB"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	put := func(name, body string) {
		t.Helper()
		if code, out := do(t, http.MethodPut, ts.URL+"/graphs/"+name, "text/plain", body); code != http.StatusOK {
			t.Fatalf("PUT %s: %d %v", name, code, out)
		}
	}
	configure := func() *core.DeltaStats {
		t.Helper()
		code, out := do(t, http.MethodPost, ts.URL+"/configure", "", "")
		if code != http.StatusOK || out["satisfied"].(float64) != 2 {
			t.Fatalf("POST configure: %d %v, want both policies satisfied", code, out)
		}
		return s.rt.Current().Delta
	}
	put("web", "graph w\nClients -> Web: minbw 20Mbps\n")
	put("db", "graph d\nClients -> DB: minbw 10Mbps\n")
	configure()
	if d := configure(); d != nil {
		t.Errorf("configure with unchanged writers was a delta solve (%+v), want a full one", d)
	}
	put("db", "graph d\nClients -> DB: minbw 30Mbps\n")
	if d := configure(); d == nil || d.Affected != 1 {
		t.Errorf("configure after one writer's bandwidth PUT: DeltaStats = %+v, want Affected 1", d)
	}
	if m := s.rt.Metrics(); m.Reconfigurations != 2 || m.DeltaSolves != 1 {
		t.Errorf("%d reconfigurations, %d delta solves; want 2 and 1", m.Reconfigurations, m.DeltaSolves)
	}
}

func TestSubmitJSONGraph(t *testing.T) {
	ts, _ := testServer(t)
	g := policy.NewGraph("x")
	g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web", QoS: policy.QoS{BandwidthMbps: 5}})
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	code, body := do(t, http.MethodPut, ts.URL+"/graphs/x", "application/json", string(data))
	if code != http.StatusOK {
		t.Fatalf("PUT json graph: %d %v", code, body)
	}
}

func TestEventFlow(t *testing.T) {
	ts, tp := testServer(t)
	do(t, http.MethodPut, ts.URL+"/graphs/web", "text/plain", intentBody)
	code, _ := do(t, http.MethodPost, ts.URL+"/configure", "", "")
	if code != http.StatusOK {
		t.Fatal("configure failed")
	}

	// Stateful counter event escalates onto the reserved path.
	for i := 0; i < 5; i++ {
		code, body := do(t, http.MethodPost, ts.URL+"/events/counter", "application/json",
			`{"src":"c1","dst":"srv1","event":"failed-connections","delta":1}`)
		if code != http.StatusOK {
			t.Fatalf("counter event: %d %v", code, body)
		}
	}
	code, body := do(t, http.MethodGet, ts.URL+"/metrics", "", "")
	if code != http.StatusOK {
		t.Fatalf("GET metrics: %d %v", code, body)
	}
	if body["StatefulReroutes"].(float64) != 1 {
		t.Errorf("StatefulReroutes = %v, want 1", body["StatefulReroutes"])
	}
	// Solver telemetry from the initial configure flows through verbatim.
	if body["SolverWorkers"].(float64) < 1 {
		t.Errorf("SolverWorkers = %v, want >= 1", body["SolverWorkers"])
	}
	if body["SolverNodes"].(float64) < 1 {
		t.Errorf("SolverNodes = %v, want >= 1", body["SolverNodes"])
	}
	if body["SolverLPIterations"].(float64) < 1 {
		t.Errorf("SolverLPIterations = %v, want >= 1", body["SolverLPIterations"])
	}
	if body["SolverRefactorizations"].(float64) < 1 {
		t.Errorf("SolverRefactorizations = %v, want >= 1", body["SolverRefactorizations"])
	}

	// Mobility.
	var mid topo.NodeID
	for _, n := range tp.Nodes {
		if n.Name == "mid" {
			mid = n.ID
		}
	}
	code, body = do(t, http.MethodPost, ts.URL+"/events/move", "application/json",
		fmt.Sprintf(`{"endpoint":"c1","to":%d}`, mid))
	if code != http.StatusOK {
		t.Fatalf("move event: %d %v", code, body)
	}
	if body["satisfied"].(float64) != 1 {
		t.Errorf("policy lost after move: %v", body)
	}

	// Temporal tick.
	code, _ = do(t, http.MethodPost, ts.URL+"/events/hour", "application/json", `{"hour":12}`)
	if code != http.StatusOK {
		t.Fatal("hour event failed")
	}

	// Link failure between a and b.
	var a, b topo.NodeID
	for _, n := range tp.Nodes {
		switch n.Name {
		case "a":
			a = n.ID
		case "b":
			b = n.ID
		}
	}
	code, body = do(t, http.MethodPost, ts.URL+"/events/linkfail", "application/json",
		fmt.Sprintf(`{"from":%d,"to":%d}`, a, b))
	if code != http.StatusOK {
		t.Fatalf("linkfail event: %d %v", code, body)
	}
}

func TestErrorPaths(t *testing.T) {
	ts, _ := testServer(t)
	// Events before configure → 409.
	code, _ := do(t, http.MethodPost, ts.URL+"/events/hour", "application/json", `{"hour":2}`)
	if code != http.StatusConflict {
		t.Errorf("event before configure: %d, want 409", code)
	}
	// Bad intent → 422.
	code, _ = do(t, http.MethodPut, ts.URL+"/graphs/bad", "text/plain", "not a graph")
	if code != http.StatusUnprocessableEntity {
		t.Errorf("bad intent: %d, want 422", code)
	}
	// Bad JSON → 422.
	code, _ = do(t, http.MethodPut, ts.URL+"/graphs/bad", "application/json", "{")
	if code != http.StatusUnprocessableEntity {
		t.Errorf("bad json: %d, want 422", code)
	}
	// Delete missing → 404.
	code, _ = do(t, http.MethodDelete, ts.URL+"/graphs/ghost", "", "")
	if code != http.StatusNotFound {
		t.Errorf("delete missing: %d, want 404", code)
	}
	// Wrong methods → 405.
	for _, probe := range []struct{ method, path string }{
		{http.MethodDelete, "/graphs"},
		{http.MethodPost, "/composed"},
		{http.MethodGet, "/configure"},
		{http.MethodPost, "/config"},
		{http.MethodGet, "/events/move"},
	} {
		code, _ := do(t, probe.method, ts.URL+probe.path, "", "")
		if code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d, want 405", probe.method, probe.path, code)
		}
	}
	// Unknown endpoint in event → 422.
	do(t, http.MethodPut, ts.URL+"/graphs/web", "text/plain", intentBody)
	do(t, http.MethodPost, ts.URL+"/configure", "", "")
	code, _ = do(t, http.MethodPost, ts.URL+"/events/move", "application/json",
		`{"endpoint":"ghost","to":0}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("move unknown endpoint: %d, want 422", code)
	}
}

func TestGraphDeleteAndReconfigure(t *testing.T) {
	ts, _ := testServer(t)
	do(t, http.MethodPut, ts.URL+"/graphs/web", "text/plain", intentBody)
	do(t, http.MethodPost, ts.URL+"/configure", "", "")
	code, _ := do(t, http.MethodDelete, ts.URL+"/graphs/web", "", "")
	if code != http.StatusOK {
		t.Fatal("delete failed")
	}
	code, body := do(t, http.MethodPost, ts.URL+"/configure", "", "")
	if code != http.StatusOK {
		t.Fatalf("reconfigure after delete: %d %v", code, body)
	}
	if body["policies"].(float64) != 0 {
		t.Errorf("policies after delete = %v, want 0", body["policies"])
	}
}

func TestInvalidTopology(t *testing.T) {
	tp := topo.NewTopology("bad")
	tp.AddSwitch("")
	tp.AddSwitch("")
	if _, err := New(tp, core.Config{}); err == nil {
		t.Error("disconnected topology should be rejected")
	}
}

// TestConcurrentRequests hammers the northbound API from many goroutines
// at once — graph submissions, reconfigurations, runtime events, and state
// queries all interleave. It exists to be run under -race: any handler
// touching guarded state outside s.mu shows up here.
func TestConcurrentRequests(t *testing.T) {
	ts, _ := testServer(t)
	do(t, http.MethodPut, ts.URL+"/graphs/web", "text/plain", intentBody)
	do(t, http.MethodPost, ts.URL+"/configure", "", "")

	// request is a goroutine-safe variant of do: it returns errors instead
	// of calling t.Fatal, and only 5xx (or transport failure) is fatal —
	// 4xx responses are legitimate interleavings (e.g. querying /config
	// concurrently with a graph deletion).
	request := func(method, path, contentType, body string) error {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		if err := resp.Body.Close(); err != nil {
			return err
		}
		if resp.StatusCode >= 500 {
			return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
		return nil
	}

	const workers, iters = 8, 14
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var err error
				switch i % 7 {
				case 0:
					err = request(http.MethodPut, fmt.Sprintf("/graphs/g%d", w), "text/plain", intentBody)
				case 1:
					err = request(http.MethodPost, "/configure", "", "")
				case 2:
					err = request(http.MethodGet, "/graphs", "", "")
				case 3:
					err = request(http.MethodPost, "/events/hour", "application/json",
						fmt.Sprintf(`{"hour":%d}`, (w+i)%24))
				case 4:
					err = request(http.MethodPost, "/events/counter", "application/json",
						`{"src":"c1","dst":"srv1","event":"failed-connections","delta":1}`)
				case 5:
					err = request(http.MethodGet, "/config", "", "")
				case 6:
					err = request(http.MethodGet, "/metrics", "", "")
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The server must still be coherent after the storm.
	code, body := do(t, http.MethodPost, ts.URL+"/configure", "", "")
	if code != http.StatusOK {
		t.Fatalf("configure after concurrent storm: %d %v", code, body)
	}
	if body["policies"].(float64) < 1 {
		t.Errorf("policies after storm = %v, want >= 1", body["policies"])
	}
}

// TestEventRoutes drives every kind of /events/{kind} with its documented
// body and checks the event's effect in /status or /config, then the
// route's error statuses.
func TestEventRoutes(t *testing.T) {
	ts, tp := testServer(t)
	id := map[string]topo.NodeID{}
	for _, n := range tp.Nodes {
		id[n.Name] = n.ID
	}
	post := func(kind, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/events/"+kind, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	// hardPath is the path /config serves c1→srv1 on.
	hardPath := func() string {
		t.Helper()
		_, cfg := do(t, http.MethodGet, ts.URL+"/config", "", "")
		as, _ := cfg["assignments"].([]any) // null once no policy has a pair
		for _, a := range as {
			if a := a.(map[string]any); a["src"] == "c1" && a["role"] == "hard" {
				return a["path"].(string)
			}
		}
		return ""
	}
	status := func() map[string]any {
		t.Helper()
		_, st := do(t, http.MethodGet, ts.URL+"/status", "", "")
		return st
	}
	link := fmt.Sprintf(`{"from":%d,"to":%d}`, id["a"], id["b"])
	viaHIDS := fmt.Sprintf("-%d-", id["hids"])

	for _, kind := range []string{"move", "relabel", "counter", "hour", "linkfail", "linkrestore"} {
		if code := post(kind, `{}`); code != http.StatusConflict {
			t.Errorf("%s before configure: %d, want 409", kind, code)
		}
	}
	do(t, http.MethodPut, ts.URL+"/graphs/web", "text/plain", intentBody)
	if code, body := do(t, http.MethodPost, ts.URL+"/configure", "", ""); code != http.StatusOK {
		t.Fatalf("configure: %d %v", code, body)
	}

	for _, step := range []struct {
		kind, body string
		effect     func() bool
	}{
		{"hour", `{"hour":9}`, func() bool { return status()["hour"].(float64) == 9 }},
		{"linkfail", link, func() bool { return len(status()["rememberedLinks"].([]any)) == 1 }},
		{"linkrestore", link, func() bool { return len(status()["rememberedLinks"].([]any)) == 0 }},
		{"move", fmt.Sprintf(`{"endpoint":"c1","to":%d}`, id["mid"]),
			func() bool { return strings.HasPrefix(hardPath(), fmt.Sprint(id["mid"])+"-") }},
		{"counter", `{"src":"c1","dst":"srv1","event":"failed-connections","delta":4}`,
			func() bool { return !strings.Contains(hardPath(), viaHIDS) }},
		// No delta counts 1: the fifth failed connection trips the H-IDS
		// escalation.
		{"counter", `{"src":"c1","dst":"srv1","event":"failed-connections"}`,
			func() bool { return strings.Contains(hardPath(), viaHIDS) }},
		{"relabel", `{"endpoint":"c1","labels":["Guests"]}`, func() bool { return hardPath() == "" }},
	} {
		if code := post(step.kind, step.body); code != http.StatusOK {
			t.Fatalf("POST /events/%s %s: %d, want 200", step.kind, step.body, code)
		}
		if !step.effect() {
			t.Errorf("POST /events/%s %s: effect missing (status %v, c1 path %q)", step.kind, step.body, status(), hardPath())
		}
	}

	for _, probe := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/events/teleport", `{}`, http.StatusNotFound},
		{http.MethodGet, "/events/teleport", ``, http.StatusNotFound},
		{http.MethodGet, "/events/move", ``, http.StatusMethodNotAllowed},
		{http.MethodPost, "/events/move", `{"endpoint":`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(probe.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != probe.want {
			t.Errorf("%s %s %s: %d, want %d", probe.method, probe.path, probe.body, resp.StatusCode, probe.want)
		}
	}
}
