package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"janus/internal/core"
	"janus/internal/policy"
	"janus/internal/server"
	"janus/internal/store"
)

// janusd's own settings: five candidate paths per pair and a snapshot every
// 64 appends.
const (
	candidatePaths = 5
	snapshotEvery  = 64
)

func solverConfig(workers int) core.Config {
	return core.Config{CandidatePaths: candidatePaths, Seed: 1, Workers: workers}
}

// rig is janusd without the process boundary: the server package behind a
// loopback listener, journaling to a real directory.
type rig struct {
	spec workloadSpec
	in   *instance
	dir  string
	st   *store.Store
	ts   *httptest.Server
	// events is the one keep-alive connection every event goes over;
	// side is the scraper's.
	events *http.Client
	side   *http.Client
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// bootServer opens the store in dir and serves a controller over it; with
// a journal already in dir this is janusd's crash recovery.
func bootServer(spec workloadSpec, in *instance, dir string) (*rig, error) {
	srv, err := server.New(in.Topo, solverConfig(spec.Workers))
	if err != nil {
		return nil, err
	}
	st, err := store.Open(store.OSFS(), dir, store.Options{SnapshotEvery: snapshotEvery})
	if err != nil {
		return nil, err
	}
	if err := srv.AttachStore(st); err != nil {
		return nil, err
	}
	return &rig{spec: spec, in: in, dir: dir, st: st, ts: httptest.NewServer(srv), events: oneConnClient(), side: oneConnClient()}, nil
}

// setUp is everything before the first event may be sent: boot, PUT every
// writer graph, and the first POST /configure (a cold full solve).
func (r *rig) setUp(ctx context.Context) error {
	for _, g := range r.in.Writers {
		if _, err := r.do(ctx, r.events, http.MethodPut, "/graphs/"+g.Name, g); err != nil {
			return err
		}
	}
	_, err := r.do(ctx, r.events, http.MethodPost, "/configure", nil)
	return err
}

// crash stops the controller the way a kill would leave it: the listener
// goes away and the journal is closed without the shutdown snapshot.
func (r *rig) crash() error {
	r.ts.Close()
	r.events.CloseIdleConnections()
	r.side.CloseIdleConnections()
	return r.st.Close()
}

func (r *rig) close() error {
	err := r.crash()
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	return err
}

// do sends one request and returns the body of a 2xx reply.
func (r *rig) do(ctx context.Context, c *http.Client, method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.ts.URL+path, rd)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// ack is what the controller answers once an event is installed, audited,
// journaled and the classifier swapped.
type ack struct {
	Satisfied int `json:"satisfied"`
	Policies  int `json:"policies"`
}

// send is the target the closed loop drives: one event (or one graph-churn
// op, which is a PUT and then a POST /configure) over the event connection.
func (r *rig) send(ctx context.Context, ev event) (ack, error) {
	var out []byte
	var err error
	if ev.Kind == evGraph {
		if _, err = r.do(ctx, r.events, http.MethodPut, "/graphs/"+ev.Graph.Name, ev.Graph); err == nil {
			out, err = r.do(ctx, r.events, http.MethodPost, "/configure", nil)
		}
	} else {
		out, err = r.do(ctx, r.events, http.MethodPost, "/events/"+ev.Kind, ev.body())
	}
	var a ack
	if err == nil {
		err = json.Unmarshal(out, &a)
	}
	return a, err
}

// serverMetrics is the part of GET /metrics the ledger reads.
type serverMetrics struct {
	Reconfigurations       int
	PathChanges            int
	RulesInstalled         int
	RulesUpdated           int
	RulesRemoved           int
	SwitchesTouched        int
	ApplyRetries           int
	AuditViolations        int
	AuditRollbacks         int
	DeltaSolves            int
	DeltaFallbacks         int
	DeltaAffectedPolicies  int
	TierCounts             map[string]int
	SolverWorkers          int
	SolverNodes            int
	SolverLPIterations     int
	SolverRefactorizations int
	SolverPricingSwitches  int
	Fastpath               struct {
		Compiles           uint64  `json:"compiles"`
		TotalCompileMicros float64 `json:"totalCompileMicros"`
	} `json:"fastpath"`
	Durability struct {
		Snapshots uint64 `json:"snapshots"`
	} `json:"durability"`
}

func (r *rig) counters(ctx context.Context) (serverMetrics, error) {
	var m serverMetrics
	out, err := r.do(ctx, r.events, http.MethodGet, "/metrics", nil)
	if err == nil {
		err = json.Unmarshal(out, &m)
	}
	return m, err
}

// scrapeEvery is the second connection's schedule: GET /metrics at 10 Hz.
const scrapeEvery = 100 * time.Millisecond

// beside is the second connection: it polls GET /metrics on the 10 Hz
// schedule until stopped, timing each poll from the moment it was due — a
// scrape queued behind a solve that holds the server's lock is as late as
// an operator's dashboard would be. Polls that come due while one is still
// waiting are skipped, not queued.
func (r *rig) beside(ctx context.Context, s *section) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan []float64, 1)
	go func() {
		var lateMs []float64
		defer func() { done <- lateMs }()
		start := time.Now()
		for n := 0; ; n++ {
			due := start.Add(time.Duration(n) * scrapeEvery)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(wait):
				}
			} else if -wait > scrapeEvery {
				continue
			}
			if _, err := r.do(ctx, r.side, http.MethodGet, "/metrics", nil); err != nil {
				return // cancelled; a server that stopped answering fails checks, which reads /metrics again
			}
			lateMs = append(lateMs, ms(time.Since(due)))
		}
	}()
	return func() { cancel(); s.scrapeMs = <-done }
}

// checks are the output checks a run must pass after its last event: no
// audit violation was ever counted, no switch sits in quarantine, and a
// controller restarted from the journal alone serves the same /config.
func (r *rig) checks(ctx context.Context) (recovery store.RecoveryInfo, err error) {
	m, err := r.counters(ctx)
	if err != nil {
		return recovery, err
	}
	if m.AuditViolations != 0 {
		return recovery, fmt.Errorf("check: /metrics counts %d audit violations", m.AuditViolations)
	}
	out, err := r.do(ctx, r.events, http.MethodGet, "/status", nil)
	if err != nil {
		return recovery, err
	}
	var status struct {
		Quarantined []int `json:"quarantined"`
	}
	if err := json.Unmarshal(out, &status); err != nil {
		return recovery, fmt.Errorf("check: /status: %w", err)
	}
	if len(status.Quarantined) != 0 {
		return recovery, fmt.Errorf("check: switches %v are quarantined", status.Quarantined)
	}
	before, err := r.do(ctx, r.events, http.MethodGet, "/config", nil)
	if err != nil {
		return recovery, err
	}
	if err := r.crash(); err != nil {
		return recovery, fmt.Errorf("check: closing the journal: %w", err)
	}
	again, err := bootServer(r.spec, r.in, r.dir)
	if err != nil {
		return recovery, fmt.Errorf("check: restart: %w", err)
	}
	*r = *again
	after, err := r.do(ctx, r.events, http.MethodGet, "/config", nil)
	if err != nil {
		return recovery, err
	}
	if before, err = canonicalConfig(before); err != nil {
		return recovery, err
	}
	if after, err = canonicalConfig(after); err != nil {
		return recovery, err
	}
	if !bytes.Equal(before, after) {
		return recovery, fmt.Errorf("check: /config differs after the restart (%d bytes before, %d after)", len(before), len(after))
	}
	return r.st.RecoveryInfo(), nil
}

// canonicalConfig re-encodes a /config body with its link report sorted.
// The live result lists links in the order the solver's map yielded them
// and the journal stores them sorted, so the raw bodies of one
// configuration differ across a restart in that order and nothing else.
func canonicalConfig(body []byte) ([]byte, error) {
	var cfg map[string]json.RawMessage
	if err := json.Unmarshal(body, &cfg); err != nil {
		return nil, fmt.Errorf("check: /config: %w", err)
	}
	var links []core.LinkUse
	if err := json.Unmarshal(cfg["links"], &links); err != nil {
		return nil, fmt.Errorf("check: /config links: %w", err)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	sorted, err := json.Marshal(links)
	if err != nil {
		return nil, err
	}
	cfg["links"] = sorted
	return json.Marshal(cfg)
}

// sortedWriters returns the graphs in the name order the server composes
// them in.
func sortedWriters(ws map[string]*policy.Graph) []*policy.Graph {
	names := make([]string, 0, len(ws))
	for n := range ws {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*policy.Graph, len(names))
	for i, n := range names {
		out[i] = ws[n]
	}
	return out
}
