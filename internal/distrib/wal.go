package distrib

// Write-ahead log.  A coordinator started with a data directory records
// every registry-changing event — tree register/unregister, the new
// snapshot after each acknowledged mutation, membership joins/leaves,
// fencing-epoch bumps and leadership-lease renewals — as
// length-prefixed, CRC-checksummed records appended (and fsynced) to a
// rotating sequence of segment files before the change is acknowledged.
// A checkpoint file (checkpoint.json, written atomically via
// tmp+rename) periodically compacts the log: the checkpoint holds the
// full durable state up to a sequence number, the segments hold what
// happened since, and replaying checkpoint-then-segments reconstructs
// the registry exactly.
//
// The record framing is deliberately dumb:
//
//	[4 bytes LE payload length][4 bytes LE IEEE CRC-32 of payload][payload]
//
// with a JSON walRecord as payload.  Every record carries a monotonic
// sequence number; segments are named wal-<seq>.log after the first
// sequence number they hold, so replay can skip whole segments the
// checkpoint already covers and a hot standby can stream records from
// any sequence number (GET /cluster/wal?from=N — see replicate.go).
// Replay stops at the first record whose frame is short, oversized or
// fails its checksum — a torn tail from a crash mid-append loses at
// most the unacknowledged suffix, and the open path truncates the file
// back to the last valid record so the log never accretes garbage.
// FuzzWALReplay pins that no byte string can panic the replayer.
//
// Compaction seals the active segment, writes the checkpoint, and
// prunes fully-covered segments beyond the retention budget (retain):
// the retained tail lets a slightly lagging standby keep streaming
// records instead of re-bootstrapping from the full checkpoint.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// crc32IEEE is the record checksum (IEEE CRC-32, the encoding/gzip
// polynomial — ubiquitous and plenty for torn-tail detection).
func crc32IEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// WAL record kinds, in the order a fresh log typically sees them.
const (
	recFence      = "fence"      // Epoch: new coordinator fencing epoch
	recLease      = "lease"      // Addr, Epoch: leadership-lease renewal by the serving coordinator
	recJoin       = "join"       // Addr: worker added to the membership
	recLeave      = "leave"      // Addr: worker removed
	recRegister   = "register"   // Name, Tree: tree registered (epoch resets to 0)
	recSnapshot   = "snapshot"   // Name, Epoch, Tree: post-mutation authoritative snapshot
	recUnregister = "unregister" // Name: tree unregistered
)

// walRecord is one durable registry event.  Seq is assigned by append
// and is strictly monotonic across the whole log (never reset by
// rotation or compaction), which is what lets a standby resume a tail
// from any point.
type walRecord struct {
	Seq   uint64          `json:"seq,omitempty"`
	Kind  string          `json:"kind"`
	Addr  string          `json:"addr,omitempty"`
	Name  string          `json:"name,omitempty"`
	Epoch uint64          `json:"epoch,omitempty"`
	Tree  json.RawMessage `json:"tree,omitempty"`
}

// durableShard is one tree's durable state: the authoritative serialized
// tree and the mutation epoch it corresponds to.
type durableShard struct {
	Epoch uint64          `json:"epoch"`
	Tree  json.RawMessage `json:"tree"`
}

// durableState is everything a coordinator restart needs: the last
// folded sequence number, the highest fencing epoch ever persisted, the
// membership, and every shard's authoritative snapshot.  It is both the
// checkpoint file's schema, the result of replaying the log, and the
// bootstrap payload shipped to a standby that lags behind retention.
type durableState struct {
	Seq          uint64                  `json:"seq,omitempty"`
	FencingEpoch uint64                  `json:"fencing_epoch"`
	Members      []string                `json:"members"`
	Shards       map[string]durableShard `json:"shards"`
}

func newDurableState() durableState {
	return durableState{Shards: make(map[string]durableShard)}
}

// apply folds one replayed record into the state.  Unknown kinds are
// ignored (forward compatibility: an older binary replaying a newer log
// skips what it does not understand rather than refusing to start).
func (st *durableState) apply(rec walRecord) {
	if rec.Seq > st.Seq {
		st.Seq = rec.Seq
	}
	switch rec.Kind {
	case recFence, recLease:
		// A lease renewal carries the leader's live fencing epoch, so a
		// standby shadowing the log learns the current epoch even if it
		// never saw the fence record itself.
		if rec.Epoch > st.FencingEpoch {
			st.FencingEpoch = rec.Epoch
		}
	case recJoin:
		for _, a := range st.Members {
			if a == rec.Addr {
				return
			}
		}
		st.Members = append(st.Members, rec.Addr)
	case recLeave:
		for i, a := range st.Members {
			if a == rec.Addr {
				st.Members = append(st.Members[:i], st.Members[i+1:]...)
				return
			}
		}
	case recRegister:
		st.Shards[rec.Name] = durableShard{Epoch: 0, Tree: rec.Tree}
	case recSnapshot:
		st.Shards[rec.Name] = durableShard{Epoch: rec.Epoch, Tree: rec.Tree}
	case recUnregister:
		delete(st.Shards, rec.Name)
	}
}

const (
	walCheckpointName = "checkpoint.json"

	// walHeaderBytes frames each record: payload length + CRC-32.
	walHeaderBytes = 8
	// maxWALRecordBytes caps one record's payload; the largest legitimate
	// record is a snapshot of a maximally sized tree (the HTTP surface
	// caps registrations at 64 MiB), so anything bigger is corruption.
	maxWALRecordBytes = 80 << 20
	// defaultCompactBytes triggers checkpoint compaction once this many
	// record bytes accumulate past the last checkpoint.
	defaultCompactBytes = 16 << 20
	// defaultSegmentBytes seals the active segment once it grows past
	// this size and opens a fresh one.
	defaultSegmentBytes = 4 << 20
	// defaultRetainSegments is how many fully-checkpointed sealed
	// segments compaction keeps around (the -wal-retain default) so a
	// lagging standby can still stream instead of re-bootstrapping.
	defaultRetainSegments = 2
)

// errWALOutOfRange reports that a requested sequence number is not
// streamable from the retained segments (compacted away, or ahead of
// the log — a diverged follower); the caller must bootstrap from a
// checkpoint instead.
var errWALOutOfRange = errors.New("distrib: requested WAL sequence is outside the retained segments")

// errWALDiverged reports that a replicated record does not chain onto
// the local log (sequence mismatch): the follower's history diverged
// from the leader's and must be rebuilt from a checkpoint.
var errWALDiverged = errors.New("distrib: replicated record does not extend the local log")

// encodeRecord frames a payload for the log.
func encodeRecord(payload []byte) []byte {
	out := make([]byte, walHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32IEEE(payload))
	copy(out[walHeaderBytes:], payload)
	return out
}

// replayFrames decodes the valid prefix of a segment image: the decoded
// records, each record's raw frame (header included, aliasing data),
// and the byte offset the valid prefix ends at.  It never fails — a
// short, oversized or checksum-failing frame simply ends the replay
// there (a crash mid-append leaves exactly such a tail).
func replayFrames(data []byte) (recs []walRecord, frames [][]byte, valid int) {
	off := 0
	for {
		if len(data)-off < walHeaderBytes {
			return recs, frames, off
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxWALRecordBytes || len(data)-off-walHeaderBytes < n {
			return recs, frames, off
		}
		payload := data[off+walHeaderBytes : off+walHeaderBytes+n]
		if crc32IEEE(payload) != sum {
			return recs, frames, off
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, frames, off
		}
		recs = append(recs, rec)
		frames = append(frames, data[off:off+walHeaderBytes+n])
		off += walHeaderBytes + n
	}
}

// replayRecords decodes the valid prefix of a segment image without the
// frame slices (the historical entry point FuzzWALReplay pins).
func replayRecords(data []byte) (recs []walRecord, valid int) {
	recs, _, valid = replayFrames(data)
	return recs, valid
}

// wal is the open segmented log of one data directory.  All appends,
// reads and the compaction hold mu, so a checkpoint never loses a
// concurrent append and a replication read never sees a torn frame.
type wal struct {
	mu        sync.Mutex
	dir       string
	f         *os.File // active segment (last of segStarts)
	size      int64    // active segment size
	segStarts []uint64 // first sequence number of each on-disk segment, ascending
	nextSeq   uint64   // sequence number the next append gets
	ckptSeq   uint64   // last sequence folded into checkpoint.json
	sinceCkpt int64    // record bytes appended since the last checkpoint

	segmentBytes int64
	compactBytes int64
	retain       int
}

// openWAL opens (creating if needed) the data directory, loads the
// checkpoint, replays the valid prefix of every segment the checkpoint
// does not already cover, truncates any torn tail, and returns the log
// positioned for appending plus the recovered state.
func openWAL(dir string) (*wal, durableState, error) {
	st := newDurableState()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, fmt.Errorf("distrib: creating data dir: %w", err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, walCheckpointName)); err == nil {
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, st, fmt.Errorf("distrib: corrupt checkpoint %s: %w", walCheckpointName, err)
		}
		if st.Shards == nil {
			st.Shards = make(map[string]durableShard)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, st, fmt.Errorf("distrib: reading checkpoint: %w", err)
	}

	w := &wal{
		dir:          dir,
		ckptSeq:      st.Seq,
		segmentBytes: defaultSegmentBytes,
		compactBytes: defaultCompactBytes,
		retain:       defaultRetainSegments,
	}
	starts, err := listSegments(dir)
	if err != nil {
		return nil, st, err
	}

	// Replay the uncovered suffix.  A segment is fully covered by the
	// checkpoint when its successor starts at or before ckptSeq+1 —
	// every record it holds was already folded in, so it is skipped
	// without being read (a corrupted-but-covered segment cannot block
	// recovery; retention keeps it only for streaming standbys).
	lastValid := int64(0)
	for i := 0; i < len(starts); i++ {
		if i+1 < len(starts) && starts[i+1] <= st.Seq+1 {
			continue
		}
		data, err := os.ReadFile(segmentPath(dir, starts[i]))
		if err != nil {
			return nil, st, fmt.Errorf("distrib: reading %s: %w", segmentName(starts[i]), err)
		}
		recs, _, valid := replayFrames(data)
		for _, rec := range recs {
			if rec.Seq > st.Seq {
				st.apply(rec)
			}
		}
		if i == len(starts)-1 {
			lastValid = int64(valid)
		} else if valid < len(data) {
			// A torn non-final segment: everything after the tear is
			// unreachable garbage from a half-finished rotation.  Truncate
			// here and drop the later segments.
			if err := os.Truncate(segmentPath(dir, starts[i]), int64(valid)); err != nil {
				return nil, st, fmt.Errorf("distrib: truncating torn segment: %w", err)
			}
			for j := i + 1; j < len(starts); j++ {
				_ = os.Remove(segmentPath(dir, starts[j]))
			}
			starts = starts[:i+1]
			lastValid = int64(valid)
			break
		}
	}
	// sinceCkpt restarts as the on-disk bytes of uncovered segments (it
	// is only a compaction trigger, not an invariant).
	for i := 0; i < len(starts); i++ {
		if i+1 < len(starts) && starts[i+1] <= w.ckptSeq+1 {
			continue
		}
		if fi, err := os.Stat(segmentPath(dir, starts[i])); err == nil {
			w.sinceCkpt += fi.Size()
		}
	}

	w.nextSeq = st.Seq + 1
	if len(starts) == 0 {
		starts = append(starts, w.nextSeq)
		f, err := os.OpenFile(segmentPath(dir, w.nextSeq), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, st, fmt.Errorf("distrib: creating segment: %w", err)
		}
		w.f = f
		w.size = 0
	} else {
		last := starts[len(starts)-1]
		f, err := os.OpenFile(segmentPath(dir, last), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, st, fmt.Errorf("distrib: opening %s: %w", segmentName(last), err)
		}
		if err := f.Truncate(lastValid); err != nil {
			f.Close()
			return nil, st, fmt.Errorf("distrib: truncating torn tail: %w", err)
		}
		if _, err := f.Seek(lastValid, 0); err != nil {
			f.Close()
			return nil, st, fmt.Errorf("distrib: seeking log end: %w", err)
		}
		w.f = f
		w.size = lastValid
	}
	w.segStarts = starts
	return w, st, nil
}

func (w *wal) close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
}

// rotateLocked seals the active segment and opens a fresh one whose
// name is the sequence number the next record will get.
func (w *wal) rotateLocked() error {
	f, err := os.OpenFile(segmentPath(w.dir, w.nextSeq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("distrib: rotating segment: %w", err)
	}
	_ = w.f.Close()
	w.f = f
	w.size = 0
	w.segStarts = append(w.segStarts, w.nextSeq)
	return nil
}

// writeFrameLocked writes one pre-framed record (rotating first if the
// active segment is full) without fsyncing; callers sync.
func (w *wal) writeFrameLocked(frame []byte) error {
	if w.size > 0 && w.size+int64(len(frame)) > w.segmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("distrib: appending WAL record: %w", err)
	}
	w.size += int64(len(frame))
	w.sinceCkpt += int64(len(frame))
	return nil
}

// append assigns the next sequence number, marshals, frames, writes and
// fsyncs one record.  The record is durable when append returns;
// callers append before acknowledging the change the record describes.
func (w *wal) append(rec walRecord) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	rec.Seq = w.nextSeq
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("distrib: encoding WAL record: %w", err)
	}
	if err := w.writeFrameLocked(encodeRecord(payload)); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("distrib: syncing WAL: %w", err)
	}
	w.nextSeq++
	return nil
}

// appendReplicated writes records fetched from a leader verbatim — the
// frames are the leader's own bytes, sequence numbers included — so the
// follower's log is a byte-faithful copy of the leader's.  Records must
// extend the local log exactly; a gap or overlap means the histories
// diverged and the follower must re-bootstrap from a checkpoint.
func (w *wal) appendReplicated(recs []walRecord, frames [][]byte) error {
	if w == nil || len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, rec := range recs {
		if rec.Seq != w.nextSeq {
			return fmt.Errorf("%w: got seq %d, want %d", errWALDiverged, rec.Seq, w.nextSeq)
		}
		if err := w.writeFrameLocked(frames[i]); err != nil {
			return err
		}
		w.nextSeq++
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("distrib: syncing WAL: %w", err)
	}
	return nil
}

// seqs reports (next sequence to be assigned, last checkpointed
// sequence, on-disk segment count).
func (w *wal) seqs() (next, ckpt uint64, segments int) {
	if w == nil {
		return 0, 0, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq, w.ckptSeq, len(w.segStarts)
}

// recordsFrom collects the raw frames of every record with sequence >=
// from, up to roughly maxBytes, and reports the next sequence a
// follower should ask for.  errWALOutOfRange means from is either below
// the retained floor (compacted away) or ahead of the log (diverged
// follower); both are answered with a checkpoint bootstrap instead.
func (w *wal) recordsFrom(from uint64, maxBytes int) (data []byte, next uint64, err error) {
	if w == nil {
		return nil, 0, errWALOutOfRange
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if from == 0 || len(w.segStarts) == 0 || from < w.segStarts[0] || from > w.nextSeq {
		return nil, 0, errWALOutOfRange
	}
	next = from
	for i := 0; i < len(w.segStarts); i++ {
		if i+1 < len(w.segStarts) && w.segStarts[i+1] <= from {
			continue // entirely before the requested window
		}
		img, err := os.ReadFile(segmentPath(w.dir, w.segStarts[i]))
		if err != nil {
			return nil, 0, fmt.Errorf("distrib: reading %s: %w", segmentName(w.segStarts[i]), err)
		}
		recs, frames, _ := replayFrames(img)
		for j, rec := range recs {
			if rec.Seq < from {
				continue
			}
			if len(data) > 0 && len(data)+len(frames[j]) > maxBytes {
				return data, next, nil
			}
			data = append(data, frames[j]...)
			next = rec.Seq + 1
		}
	}
	return data, next, nil
}

// checkpointBytes returns the current checkpoint file contents and the
// sequence number it covers.
func (w *wal) checkpointBytes() ([]byte, uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(w.dir, walCheckpointName))
	if err != nil {
		return nil, 0, fmt.Errorf("distrib: reading checkpoint: %w", err)
	}
	return data, w.ckptSeq, nil
}

// reset rebuilds the directory around a bootstrap checkpoint: every
// segment is deleted, the state is installed as the new checkpoint, and
// an empty segment is opened at the checkpoint's successor sequence.  A
// follower whose history diverged (or lagged past retention) calls this
// with the leader's shipped state.
func (w *wal) reset(st durableState) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := writeCheckpoint(w.dir, st); err != nil {
		return err
	}
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
	for _, start := range w.segStarts {
		_ = os.Remove(segmentPath(w.dir, start))
	}
	w.ckptSeq = st.Seq
	w.nextSeq = st.Seq + 1
	w.sinceCkpt = 0
	f, err := os.OpenFile(segmentPath(w.dir, w.nextSeq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("distrib: creating segment: %w", err)
	}
	w.f = f
	w.size = 0
	w.segStarts = []uint64{w.nextSeq}
	return nil
}

// shouldCompact reports whether enough record bytes accumulated past
// the last checkpoint to warrant folding them in.
func (w *wal) shouldCompact() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sinceCkpt > w.compactBytes
}

// compact writes the state build produces as the new checkpoint
// (atomically, via tmp+fsync+rename), seals the active segment, and
// prunes fully-covered segments beyond the retention budget.  build
// runs under the log mutex, so no append can land between the state
// capture and the checkpoint — a record appended after compact returns
// is correctly "newer than the checkpoint".
func (w *wal) compact(build func() durableState) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	st := build()
	st.Seq = w.nextSeq - 1
	if err := writeCheckpoint(w.dir, st); err != nil {
		return err
	}
	w.ckptSeq = st.Seq
	w.sinceCkpt = 0
	if w.size > 0 {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	w.pruneLocked()
	return nil
}

// pruneLocked deletes sealed segments every record of which the
// checkpoint covers, keeping the newest retain of them for streaming
// followers.  The active segment is never pruned.
func (w *wal) pruneLocked() {
	covered := 0
	for i := 0; i+1 < len(w.segStarts); i++ {
		if w.segStarts[i+1] <= w.ckptSeq+1 {
			covered = i + 1
		} else {
			break
		}
	}
	drop := covered - w.retain
	if drop <= 0 {
		return
	}
	for _, start := range w.segStarts[:drop] {
		_ = os.Remove(segmentPath(w.dir, start))
	}
	w.segStarts = append(w.segStarts[:0], w.segStarts[drop:]...)
}

// writeCheckpoint installs st as the directory's checkpoint file,
// atomically via tmp+fsync+rename.
func writeCheckpoint(dir string, st durableState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("distrib: encoding checkpoint: %w", err)
	}
	tmp := filepath.Join(dir, walCheckpointName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("distrib: creating checkpoint: %w", err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("distrib: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, walCheckpointName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("distrib: installing checkpoint: %w", err)
	}
	return nil
}

// sortedMembers returns the state's member list sorted (checkpoints and
// tests want a deterministic order).
func (st *durableState) sortedMembers() []string {
	out := append([]string(nil), st.Members...)
	sort.Strings(out)
	return out
}
