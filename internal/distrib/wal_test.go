package distrib

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// activeSegmentPath returns the newest segment file in dir (the one
// appends land in).
func activeSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	starts, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) == 0 {
		t.Fatal("no segments in data dir")
	}
	return segmentPath(dir, starts[len(starts)-1])
}

// TestWALRoundTrip pins the durability codec: events appended to a log
// come back, in order and in full, when the directory is reopened.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, st, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.FencingEpoch != 0 || len(st.Members) != 0 || len(st.Shards) != 0 {
		t.Fatalf("fresh directory recovered non-empty state: %+v", st)
	}
	tree := json.RawMessage(`{"kind":"xor","alts":[{"key":"a","prob":0.5},{"prob":0.5}]}`)
	events := []walRecord{
		{Kind: recFence, Epoch: 1},
		{Kind: recJoin, Addr: "http://w1"},
		{Kind: recJoin, Addr: "http://w2"},
		{Kind: recRegister, Name: "db", Tree: tree},
		{Kind: recSnapshot, Name: "db", Epoch: 3, Tree: tree},
		{Kind: recLeave, Addr: "http://w1"},
		{Kind: recUnregister, Name: "gone"},
	}
	for _, ev := range events {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	w2, st2, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if st2.FencingEpoch != 1 {
		t.Errorf("FencingEpoch = %d, want 1", st2.FencingEpoch)
	}
	if st2.Seq != uint64(len(events)) {
		t.Errorf("Seq = %d after %d appends, want %d", st2.Seq, len(events), len(events))
	}
	if next, _, _ := w2.seqs(); next != uint64(len(events))+1 {
		t.Errorf("nextSeq = %d, want %d", next, len(events)+1)
	}
	if got := st2.sortedMembers(); len(got) != 1 || got[0] != "http://w2" {
		t.Errorf("Members = %v, want [http://w2]", got)
	}
	ds, ok := st2.Shards["db"]
	if !ok || ds.Epoch != 3 || !bytes.Equal(ds.Tree, tree) {
		t.Errorf("Shards[db] = %+v, want epoch 3 with the appended tree", ds)
	}
	if _, ok := st2.Shards["gone"]; ok {
		t.Error("unregistered shard survived replay")
	}
}

// TestWALTornTail pins crash tolerance: a log whose active segment is
// truncated or corrupted mid-record recovers every record before the
// tear, truncates the garbage, and accepts new appends afterwards.
func TestWALTornTail(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:len(b)-len(b)/3] }},
		{"flipped-payload-byte", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-2] ^= 0x40
			return out
		}},
		{"garbage-appended", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) }},
		{"torn-next-header", func(b []byte) []byte { return append(b, 0x10, 0x00, 0x00, 0x00, 0x99) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, _, err := openWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.append(walRecord{Kind: recFence, Epoch: 9}); err != nil {
				t.Fatal(err)
			}
			if err := w.append(walRecord{Kind: recJoin, Addr: "http://w1"}); err != nil {
				t.Fatal(err)
			}
			w.close()

			logPath := activeSegmentPath(t, dir)
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(logPath, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			w2, st, err := openWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			// The first record always survives (the mangling touches the
			// tail); the fencing epoch is the proof.
			if st.FencingEpoch != 9 {
				t.Fatalf("FencingEpoch = %d after torn tail, want 9", st.FencingEpoch)
			}
			// The log was truncated back to its valid prefix: replaying the
			// file again finds only whole records.
			onDisk, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, valid := replayFrames(onDisk); valid != len(onDisk) {
				t.Fatalf("reopened log still has %d trailing garbage bytes", len(onDisk)-valid)
			}
			// Appends after recovery land cleanly on the truncated tail.
			if err := w2.append(walRecord{Kind: recJoin, Addr: "http://w9"}); err != nil {
				t.Fatal(err)
			}
			w2.close()
			_, st3, err := openWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, a := range st3.Members {
				if a == "http://w9" {
					found = true
				}
			}
			if !found {
				t.Fatal("append after torn-tail recovery was lost")
			}
		})
	}
}

// TestWALCompaction pins checkpointing: once compacted, the state lives
// in checkpoint.json, the active segment rotates fresh, and recovery
// folds checkpoint plus post-compaction appends together.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []walRecord{
		{Kind: recFence, Epoch: 2},
		{Kind: recJoin, Addr: "http://w1"},
		{Kind: recRegister, Name: "db", Tree: json.RawMessage(`{"kind":"and"}`)},
	} {
		if err := w.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	built := durableState{
		FencingEpoch: 2,
		Members:      []string{"http://w1"},
		Shards: map[string]durableShard{
			"db": {Epoch: 0, Tree: json.RawMessage(`{"kind":"and"}`)},
		},
	}
	if err := w.compact(func() durableState { return built }); err != nil {
		t.Fatal(err)
	}
	if w.size != 0 {
		t.Fatalf("active segment size %d after compaction, want 0 (fresh rotation)", w.size)
	}
	if _, ckpt, _ := w.seqs(); ckpt != 3 {
		t.Fatalf("checkpoint seq %d after 3 appends, want 3", ckpt)
	}
	if _, err := os.Stat(filepath.Join(dir, walCheckpointName)); err != nil {
		t.Fatalf("no checkpoint after compaction: %v", err)
	}
	// A post-compaction append must survive alongside the checkpoint.
	if err := w.append(walRecord{Kind: recSnapshot, Name: "db", Epoch: 5, Tree: json.RawMessage(`{"kind":"xor"}`)}); err != nil {
		t.Fatal(err)
	}
	w.close()

	_, st, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.FencingEpoch != 2 || len(st.Members) != 1 {
		t.Errorf("checkpointed state lost: %+v", st)
	}
	if ds := st.Shards["db"]; ds.Epoch != 5 || !bytes.Equal(ds.Tree, []byte(`{"kind":"xor"}`)) {
		t.Errorf("post-compaction append lost: %+v", ds)
	}
}

// TestWALShouldCompact pins the trigger: the threshold is on record
// bytes accumulated since the last checkpoint, and a fresh (or
// just-compacted) log does not compact.
func TestWALShouldCompact(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.compactBytes = 64
	if w.shouldCompact() {
		t.Fatal("empty log wants compaction")
	}
	for i := 0; i < 8; i++ {
		if err := w.append(walRecord{Kind: recJoin, Addr: "http://worker-with-a-long-name"}); err != nil {
			t.Fatal(err)
		}
	}
	if !w.shouldCompact() {
		t.Fatalf("%d bytes past the checkpoint over a %d-byte threshold does not want compaction", w.sinceCkpt, w.compactBytes)
	}
	if err := w.compact(func() durableState { return newDurableState() }); err != nil {
		t.Fatal(err)
	}
	if w.shouldCompact() {
		t.Fatal("just-compacted log wants compaction")
	}
}

// TestWALSegmentRotation pins rotation: appends past the segment size
// seal the active file and open a new one named by its first sequence
// number, and reopening replays across the whole chain.
func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.segmentBytes = 128
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.append(walRecord{Kind: recJoin, Addr: "http://worker-with-a-long-name-" + string(rune('a'+i))}); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	starts, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 3 {
		t.Fatalf("only %d segments after %d oversized appends, want rotation", len(starts), n)
	}
	if starts[0] != 1 {
		t.Fatalf("first segment starts at seq %d, want 1", starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Fatalf("segment starts not ascending: %v", starts)
		}
	}
	// Every segment's first record carries exactly the sequence number
	// in its file name.
	for _, start := range starts {
		data, err := os.ReadFile(segmentPath(dir, start))
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _ := replayFrames(data)
		if len(recs) == 0 || recs[0].Seq != start {
			t.Fatalf("segment %s first record seq = %v, want %d", segmentName(start), recs, start)
		}
	}
	_, st, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != n {
		t.Fatalf("replay across %d segments recovered %d members, want %d", len(starts), len(st.Members), n)
	}
}

// TestWALRetention pins the -wal-retain contract: compaction prunes
// fully-checkpointed sealed segments down to the retention budget, and
// replay after pruning still reconstructs the full state (from the
// checkpoint plus the survivors).
func TestWALRetention(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.segmentBytes = 128
	w.retain = 1
	for i := 0; i < 20; i++ {
		if err := w.append(walRecord{Kind: recJoin, Addr: "http://worker-with-a-long-name-" + string(rune('a'+i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.compact(w1State(t, dir, w)); err != nil {
		t.Fatal(err)
	}
	starts, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// retain=1 covered segment + the fresh active one.
	if len(starts) != 2 {
		t.Fatalf("%d segments after compaction with retain=1, want 2 (one retained + active): %v", len(starts), starts)
	}
	w.close()
	_, st, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 20 {
		t.Fatalf("state after pruning recovered %d members, want 20", len(st.Members))
	}
}

// w1State returns a build function capturing the replayed state of dir's
// log as the checkpoint payload (tests have no coordinator to build it).
func w1State(t *testing.T, dir string, w *wal) func() durableState {
	t.Helper()
	st := newDurableState()
	starts := append([]uint64(nil), w.segStarts...)
	return func() durableState {
		for _, start := range starts {
			data, err := os.ReadFile(segmentPath(dir, start))
			if err != nil {
				continue
			}
			recs, _, _ := replayFrames(data)
			for _, rec := range recs {
				st.apply(rec)
			}
		}
		return st
	}
}

// TestWALReplaySkipsCoveredSegments pins the retention bugfix: a sealed
// segment every record of which the checkpoint covers is never read on
// reopen — corrupting it wholesale cannot block recovery.
func TestWALReplaySkipsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.segmentBytes = 128
	for i := 0; i < 12; i++ {
		if err := w.append(walRecord{Kind: recJoin, Addr: "http://worker-with-a-long-name-" + string(rune('a'+i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.compact(w1State(t, dir, w)); err != nil {
		t.Fatal(err)
	}
	if err := w.append(walRecord{Kind: recFence, Epoch: 7}); err != nil {
		t.Fatal(err)
	}
	w.close()
	starts, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 3 {
		t.Fatalf("want at least 3 segments (>=2 retained covered + active), got %v", starts)
	}
	// Obliterate every retained covered segment (all but the last).
	for _, start := range starts[:len(starts)-1] {
		if err := os.WriteFile(segmentPath(dir, start), bytes.Repeat([]byte{0xff}, 64), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, st, err := openWAL(dir)
	if err != nil {
		t.Fatalf("reopen with corrupted covered segments failed: %v", err)
	}
	if len(st.Members) != 12 {
		t.Errorf("recovered %d members, want 12 from the checkpoint", len(st.Members))
	}
	if st.FencingEpoch != 7 {
		t.Errorf("post-checkpoint append lost: epoch %d, want 7", st.FencingEpoch)
	}
}

// TestWALRecordsFrom pins the shipping read: frames stream back from any
// retained sequence number, and out-of-range requests (compacted away,
// ahead of the log, or the bootstrap sentinel 0) signal a checkpoint
// bootstrap instead.
func TestWALRecordsFrom(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for i := 0; i < 5; i++ {
		if err := w.append(walRecord{Kind: recJoin, Addr: "http://w" + string(rune('0'+i))}); err != nil {
			t.Fatal(err)
		}
	}
	data, next, err := w.recordsFrom(3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if next != 6 {
		t.Errorf("next = %d, want 6", next)
	}
	recs, _, valid := replayFrames(data)
	if valid != len(data) || len(recs) != 3 {
		t.Fatalf("streamed %d records (%d/%d bytes valid), want 3 whole frames", len(recs), valid, len(data))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(3+i) {
			t.Errorf("streamed record %d has seq %d, want %d", i, rec.Seq, 3+i)
		}
	}
	// Tail request: from == nextSeq is an empty, valid response.
	if data, next, err := w.recordsFrom(6, 1<<20); err != nil || len(data) != 0 || next != 6 {
		t.Errorf("recordsFrom(nextSeq) = %d bytes, next %d, err %v; want empty/6/nil", len(data), next, err)
	}
	// Out of range: bootstrap sentinel, beyond the log.
	if _, _, err := w.recordsFrom(0, 1<<20); !errors.Is(err, errWALOutOfRange) {
		t.Errorf("recordsFrom(0) err = %v, want errWALOutOfRange", err)
	}
	if _, _, err := w.recordsFrom(7, 1<<20); !errors.Is(err, errWALOutOfRange) {
		t.Errorf("recordsFrom(beyond) err = %v, want errWALOutOfRange", err)
	}
}

// TestWALAppendReplicated pins log shipping: a follower applying the
// leader's frames verbatim ends up with a byte-identical log and the
// same replayed state, and a frame that does not chain onto the local
// log is rejected as divergence.
func TestWALAppendReplicated(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, _, err := openWAL(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.close()
	follower, _, err := openWAL(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.close()

	for i := 0; i < 4; i++ {
		if err := leader.append(walRecord{Kind: recJoin, Addr: "http://w" + string(rune('0'+i))}); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := leader.recordsFrom(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	recs, frames, _ := replayFrames(data)
	if err := follower.appendReplicated(recs, frames); err != nil {
		t.Fatal(err)
	}

	leaderBytes, err := os.ReadFile(activeSegmentPath(t, leaderDir))
	if err != nil {
		t.Fatal(err)
	}
	followerBytes, err := os.ReadFile(activeSegmentPath(t, followerDir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leaderBytes, followerBytes) {
		t.Fatal("replicated log is not byte-identical to the leader's")
	}

	// A replayed frame that skips a sequence number is divergence.
	if err := follower.appendReplicated(
		[]walRecord{{Seq: 99, Kind: recFence, Epoch: 1}},
		[][]byte{encodeRecord([]byte(`{"seq":99,"kind":"fence","epoch":1}`))},
	); !errors.Is(err, errWALDiverged) {
		t.Fatalf("gap append err = %v, want errWALDiverged", err)
	}

	follower.close()
	_, st, err := openWAL(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 4 || st.Seq != 4 {
		t.Fatalf("follower replayed state %+v, want 4 members through seq 4", st)
	}
}

// TestWALReset pins the bootstrap path: installing a shipped checkpoint
// wipes local history, and appends continue from the checkpoint's
// successor sequence.
func TestWALReset(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.append(walRecord{Kind: recJoin, Addr: "http://stale"}); err != nil {
			t.Fatal(err)
		}
	}
	shipped := durableState{Seq: 41, FencingEpoch: 5, Members: []string{"http://w1"}, Shards: map[string]durableShard{}}
	if err := w.reset(shipped); err != nil {
		t.Fatal(err)
	}
	if next, ckpt, segs := w.seqs(); next != 42 || ckpt != 41 || segs != 1 {
		t.Fatalf("after reset: next=%d ckpt=%d segments=%d, want 42/41/1", next, ckpt, segs)
	}
	if err := w.append(walRecord{Kind: recFence, Epoch: 6}); err != nil {
		t.Fatal(err)
	}
	w.close()
	_, st, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 42 || st.FencingEpoch != 6 || len(st.Members) != 1 || st.Members[0] != "http://w1" {
		t.Fatalf("reset+append recovered %+v, want shipped state through seq 42 at epoch 6", st)
	}
}

// FuzzWALReplay pins the parser's crash-tolerance contract on arbitrary
// bytes: replay never panics, the reported valid prefix is within
// bounds and itself replays to the same records (idempotent recovery),
// and re-encoding the recovered records reproduces the valid prefix.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a log at all"))
	valid := encodeRecord([]byte(`{"kind":"fence","epoch":3}`))
	valid = append(valid, encodeRecord([]byte(`{"kind":"join","addr":"http://w1"}`))...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	// A segment-boundary stream: sequence numbers that start mid-log, as
	// every segment after the first does.
	boundary := encodeRecord([]byte(`{"seq":41,"kind":"lease","addr":"http://primary","epoch":2}`))
	boundary = append(boundary, encodeRecord([]byte(`{"seq":42,"kind":"snapshot","name":"db","epoch":7,"tree":{"kind":"and"}}`))...)
	f.Add(boundary)
	// A torn segment header: a whole record followed by the first five
	// bytes of the next frame (a crash exactly during the header write).
	tornHeader := append(append([]byte(nil), boundary...), 0x1a, 0x00, 0x00, 0x00, 0x3f)
	f.Add(tornHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, frames, valid := replayFrames(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d out of bounds [0,%d]", valid, len(data))
		}
		if len(frames) != len(recs) {
			t.Fatalf("%d frames for %d records", len(frames), len(recs))
		}
		total := 0
		for _, fr := range frames {
			total += len(fr)
		}
		if total != valid {
			t.Fatalf("frames cover %d bytes, valid prefix is %d", total, valid)
		}
		recs2, _, valid2 := replayFrames(data[:valid])
		if valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("replay of the valid prefix disagrees: %d records/%d bytes vs %d/%d",
				len(recs2), valid2, len(recs), valid)
		}
		var reencoded []byte
		for _, rec := range recs {
			payload, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("recovered record does not re-marshal: %v", err)
			}
			reencoded = append(reencoded, encodeRecord(payload)...)
		}
		recs3, _, _ := replayFrames(reencoded)
		if len(recs3) != len(recs) {
			t.Fatalf("re-encoded log replays %d records, want %d", len(recs3), len(recs))
		}
	})
}
