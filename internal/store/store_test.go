package store

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"janus/internal/policy"
	"janus/internal/topo"
)

func testTopo() *topo.Topology {
	t := topo.NewTopology("t")
	a := t.AddSwitch("a")
	b := t.AddSwitch("b")
	if err := t.AddLink(a, b, 100); err != nil {
		panic(err)
	}
	return t
}

func mustAppend(t *testing.T, s *Store, rec *Record) {
	t.Helper()
	if err := s.Append(rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

func tickRecord(hour int) *Record {
	return &Record{Kind: KindTick, Hour: hour}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma-delta")}
	var buf []byte
	for _, p := range payloads {
		buf = append(buf, encodeFrame(p)...)
	}
	got, validLen, torn := decodeFrames(buf)
	if torn {
		t.Fatal("clean frames reported torn")
	}
	if validLen != int64(len(buf)) {
		t.Fatalf("validLen = %d, want %d", validLen, len(buf))
	}
	if len(got) != len(payloads) {
		t.Fatalf("decoded %d payloads, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if string(got[i]) != string(payloads[i]) {
			t.Errorf("payload %d = %q, want %q", i, got[i], payloads[i])
		}
	}
}

func TestFrameTornTail(t *testing.T) {
	whole := encodeFrame([]byte("first record"))
	second := encodeFrame([]byte("second record"))
	cases := []struct {
		name string
		data []byte
	}{
		{"cut header", append(append([]byte{}, whole...), second[:4]...)},
		{"cut payload", append(append([]byte{}, whole...), second[:frameHeaderSize+3]...)},
		{"flipped bit", func() []byte {
			buf := append(append([]byte{}, whole...), second...)
			buf[len(whole)+frameHeaderSize] ^= 0x40
			return buf
		}()},
		{"insane length", func() []byte {
			buf := append(append([]byte{}, whole...), second...)
			buf[len(whole)] = 0xff
			buf[len(whole)+1] = 0xff
			buf[len(whole)+2] = 0xff
			buf[len(whole)+3] = 0xff
			return buf
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payloads, validLen, torn := decodeFrames(tc.data)
			if !torn {
				t.Fatal("torn tail not detected")
			}
			if validLen != int64(len(whole)) {
				t.Fatalf("validLen = %d, want %d", validLen, len(whole))
			}
			if len(payloads) != 1 || string(payloads[0]) != "first record" {
				t.Fatalf("payloads = %q, want just the first record", payloads)
			}
		})
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	fs := NewCrashFS(1)
	s, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.RecoveredState() != nil {
		t.Fatal("cold start returned a recovered state")
	}
	tp := testTopo()
	if err := tp.AddEndpoint("web1", 1, "Guests"); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, &Record{Kind: KindConfigure, Hour: 0, Topo: tp})
	mustAppend(t, s, &Record{
		Kind:    KindReconfigure,
		Hour:    1,
		TopoOps: []TopoOp{{Op: TopoRelabel, Endpoint: "web1", Labels: []string{"Web"}}},
		Counter: &CounterDelta{Src: "a", Dst: "b", Event: "FailedConnections", Delta: 2},
	})
	mustAppend(t, s, tickRecord(5))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.RecoveryInfo()
	if info.ReplayedRecords != 3 || info.LastSeq != 3 || info.TornTail {
		t.Fatalf("recovery info = %+v, want 3 replayed, lastSeq 3, no torn tail", info)
	}
	state := s2.RecoveredState()
	if state == nil {
		t.Fatal("no recovered state")
	}
	if state.Hour != 5 {
		t.Errorf("hour = %d, want 5", state.Hour)
	}
	if got := state.Counters["a->b"]["FailedConnections"]; got != 2 {
		t.Errorf("counter = %d, want 2", got)
	}
	if ep, ok := state.Topo.EndpointByName("web1"); !ok {
		t.Error("replayed endpoint missing")
	} else if !reflect.DeepEqual(ep.Labels, []string{"Web"}) {
		t.Errorf("replayed endpoint labels = %v, want [Web]", ep.Labels)
	}
	// Appends continue from the recovered sequence.
	rec := tickRecord(6)
	mustAppend(t, s2, rec)
	if rec.Seq != 4 {
		t.Errorf("post-recovery seq = %d, want 4", rec.Seq)
	}
}

// TestReplayRejectsUnknownTopoOp checks that a topology op no runtime
// mutator emits, such as "add-endpoint", fails replay instead
// of being applied.
func TestReplayRejectsUnknownTopoOp(t *testing.T) {
	tp := testTopo()
	_, err := Replay(nil, []*Record{
		{Seq: 1, Kind: KindConfigure, Topo: tp},
		{Seq: 2, Kind: KindReconfigure, TopoOps: []TopoOp{
			{Op: "add-endpoint", Endpoint: "web1", Node: 1, Labels: []string{"Web"}},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown topology op") {
		t.Fatalf("Replay err = %v, want unknown topology op", err)
	}
	if _, ok := tp.EndpointByName("web1"); ok {
		t.Error("rejected op still added the endpoint")
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	fs := NewCrashFS(7)
	s, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, &Record{Kind: KindConfigure, Topo: testTopo()})
	mustAppend(t, s, tickRecord(1))

	// Crash during the third append's write: the journal gains a torn
	// record that recovery must truncate.
	fs.SetCrashAfter(1)
	if err := s.Append(tickRecord(2)); err == nil {
		t.Fatal("append through crash succeeded")
	}
	fs.Restart()

	s2, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.RecoveryInfo()
	if info.ReplayedRecords != 2 || info.LastSeq != 2 {
		t.Fatalf("recovery info = %+v, want 2 replayed records", info)
	}
	if state := s2.RecoveredState(); state == nil || state.Hour != 1 {
		t.Fatalf("recovered state = %+v, want hour 1", s2.RecoveredState())
	}
	// The torn bytes are physically gone: the next append must land on a
	// clean boundary and survive another recovery.
	mustAppend(t, s2, tickRecord(3))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if info := s3.RecoveryInfo(); info.LastSeq != 3 || info.TornTail {
		t.Fatalf("third recovery info = %+v, want lastSeq 3 and clean tail", info)
	}
}

func TestWedgedAfterSyncFailure(t *testing.T) {
	fs := NewCrashFS(3)
	s, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, tickRecord(1))
	fs.SetCrashAfter(2) // the next append's fsync
	if err := s.Append(tickRecord(2)); err == nil {
		t.Fatal("append through fsync crash succeeded")
	}
	fs.Restart()
	// The store must refuse further appends: its in-memory tail position
	// no longer matches the disk.
	if err := s.Append(tickRecord(3)); err == nil {
		t.Fatal("append on wedged store succeeded")
	}
}

func TestWarmRestartZeroReplay(t *testing.T) {
	fs := NewCrashFS(11)
	s, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	state := &State{Hour: 9, Topo: testTopo(), Quarantined: []topo.NodeID{2}}
	s.SetSnapshotSource(func() *State { return state })
	mustAppend(t, s, &Record{Kind: KindConfigure, Topo: testTopo()})
	mustAppend(t, s, tickRecord(9))
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.RecoveryInfo()
	if !info.SnapshotLoaded || info.ReplayedRecords != 0 || info.Generation != 1 || info.LastSeq != 2 {
		t.Fatalf("warm restart info = %+v, want snapshot gen 1, zero replayed, lastSeq 2", info)
	}
	got := s2.RecoveredState()
	if got.Hour != 9 || len(got.Quarantined) != 1 || got.Quarantined[0] != 2 {
		t.Fatalf("recovered state = %+v, want snapshot contents", got)
	}
}

func TestSnapshotCorruptionFallsBack(t *testing.T) {
	fs := NewCrashFS(13)
	s, err := Open(fs, "data", Options{SnapshotEvery: 2, KeepGenerations: 10})
	if err != nil {
		t.Fatal(err)
	}
	hour := 0
	s.SetSnapshotSource(func() *State { return &State{Hour: hour} })
	for hour = 1; hour <= 4; hour++ {
		mustAppend(t, s, tickRecord(hour))
	}
	if got := s.Generation(); got != 2 {
		t.Fatalf("generation = %d, want 2 after 4 appends at cadence 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot on disk; recovery must fall back to
	// generation 1 and replay the journal suffix to reach the same state.
	path := filepath.Join("data", snapshotName(2))
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if _, err := fs.Create(path); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.RecoveryInfo()
	if info.SnapshotFallbacks != 1 || !info.SnapshotLoaded {
		t.Fatalf("recovery info = %+v, want one snapshot fallback", info)
	}
	if got := s2.RecoveredState(); got.Hour != 4 {
		t.Fatalf("recovered hour = %d, want 4", got.Hour)
	}
	if info.LastSeq != 4 {
		t.Fatalf("lastSeq = %d, want 4", info.LastSeq)
	}
}

// rewriteFile replaces a file's contents durably (test corruption helper).
func rewriteFile(t *testing.T, fs FS, path string, data []byte) {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSequenceGapTruncatesStaleSuffix reconstructs the abandoned-timeline
// scenario: a snapshot-corruption fallback replays an older journal whose
// tail was lost to an earlier torn-write truncation, so the next
// generation's journal holds records that no longer chain. Recovery must
// truncate those stale frames — otherwise records acked after this recovery
// would sit behind frames every future recovery stops at, and be lost.
func TestSequenceGapTruncatesStaleSuffix(t *testing.T) {
	fs := NewCrashFS(19)
	s, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	hour := 0
	s.SetSnapshotSource(func() *State { return &State{Hour: hour} })
	for hour = 1; hour <= 3; hour++ {
		mustAppend(t, s, tickRecord(hour))
	}
	if err := s.SnapshotNow(); err != nil { // generation 1; journal rotates
		t.Fatal(err)
	}
	for hour = 4; hour <= 5; hour++ {
		mustAppend(t, s, tickRecord(hour))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt snapshot 1 so recovery falls back to a cold replay of
	// generation 0's journal, and cut that journal's last record as an
	// earlier torn-tail truncation would have: generation 1's records
	// (seqs 4-5) now chain from a state that no longer exists.
	snapPath := filepath.Join("data", snapshotName(1))
	data, err := fs.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	rewriteFile(t, fs, snapPath, data)
	walPath := filepath.Join("data", walName(0))
	if data, err = fs.ReadFile(walPath); err != nil {
		t.Fatal(err)
	}
	payloads, _, torn := decodeFrames(data)
	if torn || len(payloads) != 3 {
		t.Fatalf("wal 0 has %d records (torn=%v), want 3", len(payloads), torn)
	}
	cut := int64(len(data) - frameHeaderSize - len(payloads[len(payloads)-1]))
	if err := fs.Truncate(walPath, cut); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	info := s2.RecoveryInfo()
	if info.SnapshotLoaded || info.ReplayedRecords != 2 || info.LastSeq != 2 || !info.TornTail {
		t.Fatalf("gap recovery info = %+v, want 2 replayed records and a truncated tail", info)
	}
	// Records acked from here on must survive the next recovery: the stale
	// frames are gone, so the chain runs straight into the new records.
	mustAppend(t, s2, tickRecord(3))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(fs, "data", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if info := s3.RecoveryInfo(); info.LastSeq != 3 || info.TornTail {
		t.Fatalf("post-gap recovery info = %+v, want lastSeq 3 and a clean tail", info)
	}
	if got := s3.RecoveredState(); got == nil || got.Hour != 3 {
		t.Fatalf("recovered state = %+v, want hour 3", s3.RecoveredState())
	}
}

func TestGenerationGC(t *testing.T) {
	fs := NewCrashFS(17)
	s, err := Open(fs, "data", Options{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	hour := 0
	s.SetSnapshotSource(func() *State { return &State{Hour: hour} })
	for hour = 1; hour <= 5; hour++ {
		mustAppend(t, s, tickRecord(hour))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		snapshotName(4), snapshotName(5),
		walName(4), walName(5),
	}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s after GC (have %v)", w, names)
		}
	}
	if len(names) != len(want) {
		t.Errorf("GC left %v, want exactly %v", names, want)
	}
}

func TestCrashDuringSnapshotRename(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fs := NewCrashFS(seed)
			s, err := Open(fs, "data", Options{})
			if err != nil {
				t.Fatal(err)
			}
			hour := 0
			s.SetSnapshotSource(func() *State { return &State{Hour: hour} })
			for hour = 1; hour <= 3; hour++ {
				mustAppend(t, s, tickRecord(hour))
			}
			// Snapshot write is: temp write, temp sync, rename. Crash on
			// the rename — the swap may or may not have happened.
			fs.SetCrashAfter(3)
			if err := s.SnapshotNow(); err == nil {
				t.Fatal("snapshot through crash succeeded")
			}
			fs.Restart()

			s2, err := Open(fs, "data", Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			// Either way the journal still covers everything: recovered
			// state must show hour 3 with lastSeq 3.
			if got := s2.RecoveredState(); got == nil || got.Hour != 3 {
				t.Fatalf("recovered state = %+v, want hour 3\nfs:\n%s", got, fs.Dump())
			}
			if info := s2.RecoveryInfo(); info.LastSeq != 3 {
				t.Fatalf("lastSeq = %d, want 3", info.LastSeq)
			}
		})
	}
}

func TestCrashSweepEveryPoint(t *testing.T) {
	// Drive an identical workload through every possible crash point and
	// assert recovery always lands on a journal boundary: hour H with
	// lastSeq H for some prefix H of the workload.
	const events = 6
	ref := NewCrashFS(0)
	s, err := Open(ref, "data", Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	refHour := 0
	s.SetSnapshotSource(func() *State { return &State{Hour: refHour} })
	for refHour = 1; refHour <= events; refHour++ {
		mustAppend(t, s, tickRecord(refHour))
	}
	totalOps := ref.Ops()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for point := 1; point <= totalOps; point++ {
		for seed := int64(0); seed < 3; seed++ {
			fs := NewCrashFS(seed)
			s, err := Open(fs, "data", Options{SnapshotEvery: 3})
			if err != nil {
				t.Fatalf("point %d seed %d: %v", point, seed, err)
			}
			hour := 0
			s.SetSnapshotSource(func() *State { return &State{Hour: hour} })
			fs.SetCrashAfter(point)
			acked := 0
			for hour = 1; hour <= events; hour++ {
				if err := s.Append(tickRecord(hour)); err != nil {
					break
				}
				acked = hour
			}
			fs.Restart()

			s2, err := Open(fs, "data", Options{})
			if err != nil {
				t.Fatalf("point %d seed %d: recovery: %v\nfs:\n%s", point, seed, err, fs.Dump())
			}
			info := s2.RecoveryInfo()
			state := s2.RecoveredState()
			gotHour := 0
			if state != nil {
				gotHour = state.Hour
			}
			if uint64(gotHour) != info.LastSeq {
				t.Fatalf("point %d seed %d: hour %d but lastSeq %d\nfs:\n%s",
					point, seed, gotHour, info.LastSeq, fs.Dump())
			}
			// No acked event may be lost; at most the in-flight record may
			// additionally have survived.
			if gotHour < acked || gotHour > acked+1 {
				t.Fatalf("point %d seed %d: recovered hour %d, acked %d\nfs:\n%s",
					point, seed, gotHour, acked, fs.Dump())
			}
			if err := s2.Close(); err != nil {
				t.Fatalf("point %d seed %d: close: %v", point, seed, err)
			}
		}
	}
}

func writerGraph(name string) *policy.Graph {
	return &policy.Graph{Name: name}
}

func TestReplayWriterRecords(t *testing.T) {
	state, err := Replay(nil, []*Record{
		{Seq: 1, Kind: KindWriterPut, Writer: "alice", WriterGraph: writerGraph("alice")},
		{Seq: 2, Kind: KindWriterPut, Writer: "bob", WriterGraph: writerGraph("bob")},
		{Seq: 3, Kind: KindWriterDelete, Writer: "alice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Writers) != 1 {
		t.Fatalf("writers = %v, want just bob", state.Writers)
	}
	if state.Writers["bob"] == nil {
		t.Fatal("bob's graph missing")
	}
}
