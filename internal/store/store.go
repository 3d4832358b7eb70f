package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// snapshotMagic prefixes every snapshot file; the bytes after it are a
// single CRC32 frame holding the snapshot envelope.
var snapshotMagic = []byte("JANUS-SNAP-1\n")

// Options tunes the store's snapshot behaviour.
type Options struct {
	// SnapshotEvery takes an automatic snapshot after this many appends
	// (0 disables automatic snapshots; SnapshotNow still works).
	SnapshotEvery int
}

// keepGenerations is how many snapshot generations the store retains: the
// current one and a fallback for when it fails validation.
const keepGenerations = 2

// Stats counts the store's durability work, surfaced on /metrics.
type Stats struct {
	Appends          uint64 `json:"appends"`
	Fsyncs           uint64 `json:"fsyncs"`
	Snapshots        uint64 `json:"snapshots"`
	SnapshotFailures uint64 `json:"snapshotFailures"`
	GCFailures       uint64 `json:"gcFailures"`
}

// RecoveryInfo describes what Open found on disk, surfaced on /status.
type RecoveryInfo struct {
	// Generation is the snapshot generation recovery started from.
	Generation uint64 `json:"generation"`
	// SnapshotLoaded is false on a cold start with no usable snapshot.
	SnapshotLoaded bool `json:"snapshotLoaded"`
	// SnapshotFallbacks counts newer snapshots that failed validation and
	// were skipped in favour of an older generation.
	SnapshotFallbacks int `json:"snapshotFallbacks"`
	// ReplayedRecords is the journal suffix length replayed on top of the
	// snapshot; zero on a warm restart.
	ReplayedRecords int `json:"replayedRecords"`
	// TornTail is true when the journal ended in a torn, corrupt, or
	// sequence-discontinuous record that recovery truncated.
	TornTail bool `json:"tornTail"`
	// LastSeq is the sequence number of the last durable record.
	LastSeq uint64 `json:"lastSeq"`
	// Duration is the wall-clock recovery time.
	Duration time.Duration `json:"durationNs"`
}

// Store is the durable journal + snapshot engine. All methods are safe for
// concurrent use.
type Store struct {
	fs   FS
	dir  string
	opts Options

	mu           sync.Mutex
	wal          File
	gen          uint64
	nextSeq      uint64
	appendsSince int
	source       func() *State
	stats        Stats
	info         RecoveryInfo
	recovered    *State
	failed       error
	closed       bool
}

// snapshotEnvelope is the decoded body of a snapshot file.
type snapshotEnvelope struct {
	Generation uint64 `json:"generation"`
	LastSeq    uint64 `json:"lastSeq"`
	State      *State `json:"state"`
}

func snapshotName(gen uint64) string { return fmt.Sprintf("snapshot-%08d.db", gen) }
func walName(gen uint64) string      { return fmt.Sprintf("wal-%08d.log", gen) }

// Open mounts the store at dir, performing full recovery: it loads the
// newest snapshot that validates (falling back across generations on
// corruption), chain-replays the journal suffix with strict sequence
// continuity, truncates any torn tail, and positions the journal for
// appending. The recovered state — nil on a cold start — is available via
// RecoveredState.
func Open(fsys FS, dir string, opts Options) (*Store, error) {
	start := time.Now()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}

	var snapGens, walGens []uint64
	for _, name := range names {
		var gen uint64
		switch {
		case matchGen(name, "snapshot-%08d.tmp", &gen):
			// An interrupted snapshot write; the rename never happened, so
			// the generation it was building does not exist.
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("store: removing stale %s: %w", name, err)
			}
		case matchGen(name, "snapshot-%08d.db", &gen):
			snapGens = append(snapGens, gen)
		case matchGen(name, "wal-%08d.log", &gen):
			walGens = append(walGens, gen)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	s := &Store{fs: fsys, dir: dir, opts: opts, nextSeq: 1}

	// Newest snapshot that validates wins; corrupt ones are skipped and
	// counted so operators can see the fallback happened.
	var base *State
	for i := len(snapGens) - 1; i >= 0; i-- {
		env, err := readSnapshot(fsys, filepath.Join(dir, snapshotName(snapGens[i])))
		if err != nil {
			s.info.SnapshotFallbacks++
			continue
		}
		base = env.State
		s.gen = env.Generation
		s.nextSeq = env.LastSeq + 1
		s.info.SnapshotLoaded = true
		break
	}
	s.info.Generation = s.gen

	// Chain-replay journal generations from the snapshot's onward. Strict
	// sequence continuity: a gap (possible only after a mid-chain torn
	// tail) ends replay — later records describe state we cannot reach.
	var records []*Record
	activeGen := s.gen
	ended := false // replay hit a gap or torn tail before the last generation's end
	for _, g := range walGens {
		if g < s.gen {
			continue
		}
		path := filepath.Join(dir, walName(g))
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", path, err)
		}
		payloads, validLen, torn := decodeFrames(data)
		stop := false
		consumed := int64(0)
		for _, p := range payloads {
			rec := &Record{}
			if err := json.Unmarshal(p, rec); err != nil {
				return nil, fmt.Errorf("store: decoding record in %s: %w", path, err)
			}
			if rec.Seq != s.nextSeq {
				stop = true
				break
			}
			consumed += int64(frameHeaderSize + len(p))
			records = append(records, rec)
			s.nextSeq++
		}
		// Both endings truncate the journal where replay stopped: a torn
		// tail at the last whole frame, a sequence gap at the last record
		// that chained. The gap's stale frames (an abandoned timeline left
		// by an earlier torn-tail truncation) must go, or appends would land
		// behind frames every future recovery stops at — losing them.
		switch {
		case stop:
			s.info.TornTail = true
			if err := fsys.Truncate(path, consumed); err != nil {
				return nil, fmt.Errorf("store: truncating stale suffix of %s: %w", path, err)
			}
		case torn:
			s.info.TornTail = true
			if err := fsys.Truncate(path, validLen); err != nil {
				return nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
			}
		}
		activeGen = g
		if stop || torn {
			ended = true
			break
		}
	}
	// When replay ended early, files of later generations belong to the
	// same abandoned timeline: their records cannot chain from any state we
	// can reach (a snapshot there would have been the recovery base were it
	// valid). Remove them so the next boot replays only the live timeline.
	if ended {
		for _, g := range walGens {
			if g > activeGen {
				if err := fsys.Remove(filepath.Join(dir, walName(g))); err != nil {
					return nil, fmt.Errorf("store: removing stale %s: %w", walName(g), err)
				}
			}
		}
		for _, g := range snapGens {
			if g > activeGen {
				if err := fsys.Remove(filepath.Join(dir, snapshotName(g))); err != nil {
					return nil, fmt.Errorf("store: removing stale %s: %w", snapshotName(g), err)
				}
			}
		}
	}
	if len(records) > 0 {
		state, err := Replay(base, records)
		if err != nil {
			return nil, err
		}
		base = state
	}
	s.recovered = base
	s.gen = activeGen
	s.info.Generation = activeGen
	s.info.ReplayedRecords = len(records)
	s.info.LastSeq = s.nextSeq - 1

	wal, err := fsys.OpenAppend(filepath.Join(dir, walName(s.gen)))
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	s.wal = wal
	s.info.Duration = time.Since(start)
	return s, nil
}

// matchGen parses names like "wal-%08d.log" and extracts the generation.
func matchGen(name, pattern string, gen *uint64) bool {
	var g uint64
	n, err := fmt.Sscanf(name, pattern, &g)
	if err != nil || n != 1 {
		return false
	}
	// Round-trip to reject suffix garbage Sscanf would tolerate.
	if fmt.Sprintf(pattern, g) != name {
		return false
	}
	*gen = g
	return true
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(fsys FS, path string) (*snapshotEnvelope, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("store: %s: bad magic", path)
	}
	payloads, _, torn := decodeFrames(data[len(snapshotMagic):])
	if torn || len(payloads) != 1 {
		return nil, fmt.Errorf("store: %s: corrupt snapshot frame", path)
	}
	env := &snapshotEnvelope{}
	if err := json.Unmarshal(payloads[0], env); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	if env.State == nil {
		return nil, fmt.Errorf("store: %s: empty snapshot state", path)
	}
	return env, nil
}

// SetSnapshotSource registers the callback automatic snapshots capture
// state from. The callback runs with the store lock held, during Append,
// under whatever locks the appender itself holds — it must not acquire
// locks that could invert with them.
func (s *Store) SetSnapshotSource(source func() *State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.source = source
}

// RecoveredState returns the state reconstructed by Open, or nil on a cold
// start. The caller owns it.
func (s *Store) RecoveredState() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// RecoveryInfo reports what Open found on disk.
func (s *Store) RecoveryInfo() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.info
}

// Stats returns a copy of the durability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// LastSeq returns the sequence number of the last durable record.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq - 1
}

// Generation returns the current snapshot generation.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Append assigns the record its sequence number, frames it, and makes it
// durable (write + fsync) before returning. An error means the record must
// not be acknowledged; after a write or fsync failure the store wedges and
// refuses further appends, because the journal tail state is unknowable.
func (s *Store) Append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append on closed store")
	}
	if s.failed != nil {
		return fmt.Errorf("store: journal wedged by earlier error: %w", s.failed)
	}
	rec.Seq = s.nextSeq
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	if _, err := s.wal.Write(encodeFrame(payload)); err != nil {
		s.failed = err
		return fmt.Errorf("store: journal write: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		s.failed = err
		return fmt.Errorf("store: journal fsync: %w", err)
	}
	s.nextSeq++
	s.appendsSince++
	s.stats.Appends++
	s.stats.Fsyncs++

	// The record is durable; an automatic snapshot failing here must not
	// turn a successful append into an error, so it only counts.
	if s.opts.SnapshotEvery > 0 && s.appendsSince >= s.opts.SnapshotEvery && s.source != nil {
		if err := s.snapshotLocked(s.source()); err != nil {
			s.stats.SnapshotFailures++
		}
	}
	return nil
}

// SnapshotNow takes a snapshot immediately using the registered source
// (janusd calls this on graceful shutdown, so the next boot replays zero
// records).
func (s *Store) SnapshotNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: snapshot on closed store")
	}
	if s.source == nil {
		return fmt.Errorf("store: no snapshot source registered")
	}
	return s.snapshotLocked(s.source())
}

// snapshotLocked writes a checksummed snapshot of state atomically
// (write-temp, fsync, rename, directory fsync via FS.Rename), rotates the
// journal to the next generation, and garbage-collects old generations.
func (s *Store) snapshotLocked(state *State) error {
	if state == nil {
		return fmt.Errorf("store: snapshot source returned nil state")
	}
	newGen := s.gen + 1
	env := snapshotEnvelope{Generation: newGen, LastSeq: s.nextSeq - 1, State: state}
	payload, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}

	tmpPath := filepath.Join(s.dir, fmt.Sprintf("snapshot-%08d.tmp", newGen))
	f, err := s.fs.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	_, werr := f.Write(snapshotMagic)
	if werr == nil {
		_, werr = f.Write(encodeFrame(payload))
	}
	if werr == nil {
		werr = f.Sync()
	}
	closeErr := f.Close()
	if werr == nil {
		werr = closeErr
	}
	if werr != nil {
		return fmt.Errorf("store: writing snapshot: %w", werr)
	}
	// Create the next generation's journal BEFORE publishing the snapshot:
	// were the snapshot published first and the journal create then failed,
	// appends would keep landing in the old generation's journal, which
	// recovery — starting from the published snapshot — never reads.
	wal, err := s.fs.Create(filepath.Join(s.dir, walName(newGen)))
	if err != nil {
		return fmt.Errorf("store: rotating journal: %w", err)
	}
	if err := s.fs.Rename(tmpPath, filepath.Join(s.dir, snapshotName(newGen))); err != nil {
		// The unpublished generation's empty journal is harmless if these
		// fail: recovery chains through an empty journal untruncated.
		if closeErr := wal.Close(); closeErr != nil {
			s.stats.GCFailures++
		}
		if rmErr := s.fs.Remove(filepath.Join(s.dir, walName(newGen))); rmErr != nil {
			s.stats.GCFailures++
		}
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}

	// The snapshot is durable: swap in the rotated journal so the suffix
	// stays short, then retire generations beyond the retention window.
	if err := s.wal.Close(); err != nil {
		// The old journal is fully synced; a close failure loses nothing.
		s.stats.GCFailures++
	}
	s.wal = wal
	s.gen = newGen
	s.appendsSince = 0
	s.stats.Snapshots++

	if newGen >= keepGenerations {
		cutoff := newGen - keepGenerations
		names, err := s.fs.ReadDir(s.dir)
		if err != nil {
			s.stats.GCFailures++
			return nil
		}
		for _, name := range names {
			var g uint64
			old := (matchGen(name, "snapshot-%08d.db", &g) || matchGen(name, "wal-%08d.log", &g)) && g <= cutoff
			if !old {
				continue
			}
			if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
				s.stats.GCFailures++
			}
		}
	}
	return nil
}

// Close fsyncs and closes the journal. The store cannot be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	syncErr := s.wal.Sync()
	closeErr := s.wal.Close()
	if s.failed != nil {
		// Already wedged; sync/close errors here carry no new information.
		return nil
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
