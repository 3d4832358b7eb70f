package main

import (
	"strings"
	"time"

	"janus/internal/runtime"
	"janus/internal/store"
)

// Span names. An event span is the root of everything the event caused; a
// replay span is the root of the pure layer calls re-executed on the
// post-event state to time them (see direct.replayLayers).
const (
	spEvent        = "event"
	spReplay       = "replay"
	spSolve        = "core.solve"
	spCompose      = "compose.compose"
	spAppend       = "store.append"
	spWrite        = "store.write"
	spFsync        = "store.fsync"
	spSnapshot     = "store.snapshot" // a write or fsync of a snapshot file
	spCompile      = "fastpath.compile"
	spAudit        = "check.audit"
	spDepIndex     = "core.dep_index"
	spCompileRules = "dataplane.compile_rules"
	spPlan         = "dataplane.plan"
	spApply        = "dataplane.apply"
)

// span is one timed interval at a layer boundary. ID is the index of the
// event that caused it, shared by every span of that event; Parent is the
// index of the enclosing span in the trace, -1 for a root. Start and End
// count from the start of the trace.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans from the benchmark's side of the seams the program
// already has; nothing inside the program is instrumented. It is used from
// the one goroutine that applies events, and keeps every span in memory
// until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans begun and not yet ended
	id    int   // index of the event being applied
}

// newTracer starts a trace; spans recorded before the first event (set-up)
// carry the id -1.
func newTracer() *tracer { return &tracer{t0: time.Now(), id: -1} }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open one. A nil tracer records
// nothing, so the untraced run takes the same code path.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, ID: t.id, Parent: t.parent(), Start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0)
}

// add records a span whose duration was measured by the program itself,
// ending now (or, with endsNow false, starting where its parent started:
// the solver reports only how long it ran).
func (t *tracer) add(name string, d time.Duration, endsNow bool) {
	s := span{Name: name, ID: t.id, Parent: t.parent()}
	if endsNow {
		s.End = time.Since(t.t0)
		s.Start = s.End - d
	} else {
		s.Start = t.spans[s.Parent].Start
		s.End = s.Start + d
	}
	t.spans = append(t.spans, s)
}

// selfTimes returns, per span, its duration minus the part its children
// cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// tracedJournal times every append the runtime makes.
type tracedJournal struct {
	j  runtime.Journal
	tr *tracer
}

func (tj tracedJournal) Append(rec *store.Record) error {
	tj.tr.begin(spAppend)
	defer tj.tr.end()
	return tj.j.Append(rec)
}

// tracedFS times the journal's writes and fsyncs and counts its bytes.
// Snapshot files go through the same wrapper; their spans nest under the
// append that triggered the snapshot.
type tracedFS struct {
	store.FS
	tr       *tracer
	walBytes int64
}

func (f *tracedFS) Create(name string) (store.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(name, file), nil
}

func (f *tracedFS) OpenAppend(name string) (store.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(name, file), nil
}

func (f *tracedFS) wrap(name string, file store.File) store.File {
	return &tracedFile{File: file, fs: f, wal: strings.Contains(name, "wal-")}
}

type tracedFile struct {
	store.File
	fs  *tracedFS
	wal bool
}

func (f *tracedFile) Write(p []byte) (int, error) {
	f.fs.tr.begin(f.name(spWrite))
	defer f.fs.tr.end()
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.walBytes += int64(n)
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	f.fs.tr.begin(f.name(spFsync))
	defer f.fs.tr.end()
	return f.File.Sync()
}

func (f *tracedFile) name(journalSpan string) string {
	if f.wal {
		return journalSpan
	}
	return spSnapshot
}
