package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// journalSeed is a real three-frame journal (one shard journaled
// twice, as a crash between snapshot rename and truncate leaves it).
func journalSeed() []byte {
	var b []byte
	b = appendFrame(b, 0, payload(0))
	b = appendFrame(b, 5, payload(5))
	b = appendFrame(b, 0, []byte{})
	return b
}

// FuzzRecoverJournal feeds arbitrary bytes through the resume scan
// (recoverJournal, frame by frame through nextFrame). It must never
// panic or fail on content; it must keep exactly a prefix of the file,
// account for every dropped byte in TruncatedBytes, report only
// in-range shards once each, and be idempotent: rescanning the
// truncated file recovers the same state and truncates nothing.
func FuzzRecoverJournal(f *testing.F) {
	full := journalSeed()
	f.Add(full, uint16(8))
	f.Add(full, uint16(3)) // shard 5 out of range: the scan stops there
	for _, cut := range []int{0, 3, 11, 12, len(full) / 2, len(full) - 1} {
		f.Add(full[:cut], uint16(8))
	}
	flipped := append([]byte(nil), full...)
	flipped[14] ^= 0x40 // inside the first payload: CRC mismatch
	f.Add(flipped, uint16(8))
	f.Fuzz(func(t *testing.T, data []byte, numShards uint16) {
		n := int(numShards)%64 + 1
		path := filepath.Join(t.TempDir(), journalFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := Manifest{NumShards: n}
		st := &State{Done: make([]bool, n)}
		if err := recoverJournal(path, m, st); err != nil {
			t.Fatalf("recoverJournal: %v", err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, data[:len(kept)]) || int64(len(kept))+st.TruncatedBytes != int64(len(data)) {
			t.Fatalf("kept %d bytes + truncated %d of %d: not a prefix split", len(kept), st.TruncatedBytes, len(data))
		}
		done := 0
		for _, d := range st.Done {
			if d {
				done++
			}
		}
		if done != st.DoneCount || len(st.Records) != st.DoneCount {
			t.Fatalf("DoneCount %d, %d marked, %d records", st.DoneCount, done, len(st.Records))
		}
		for _, r := range st.Records {
			if r.Shard < 0 || r.Shard >= n {
				t.Fatalf("record shard %d outside [0, %d)", r.Shard, n)
			}
		}
		again := &State{Done: make([]bool, n)}
		if err := recoverJournal(path, m, again); err != nil {
			t.Fatalf("rescan: %v", err)
		}
		st.TruncatedBytes = 0
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("rescan of the truncated journal recovered %+v, first scan %+v", again, st)
		}
	})
}

// FuzzLoadSnapshot feeds arbitrary bytes through the snapshot decoder.
// It must never panic; a rejected file must fail with
// ErrSnapshotCorrupt and leave the state untouched; an accepted one
// must re-encode (encodeSnapshot) to a file that loads to the same
// state.
func FuzzLoadSnapshot(f *testing.F) {
	done := []bool{true, false, true, true, false, false, false, false, true}
	snap := encodeSnapshot(done, []byte(`{"merged":true}`))
	f.Add(snap, uint16(len(done)))
	f.Add(snap, uint16(len(done)+1)) // shard-count mismatch
	f.Add(encodeSnapshot(make([]bool, 1), nil), uint16(1))
	f.Add(encodeSnapshot(make([]bool, 64), bytes.Repeat([]byte{0xAB}, 40)), uint16(64))
	for _, cut := range []int{0, 8, 15, 16, len(snap) / 2, len(snap) - 1} {
		f.Add(snap[:cut], uint16(len(done)))
	}
	f.Fuzz(func(t *testing.T, data []byte, numShards uint16) {
		n := int(numShards)%256 + 1
		path := filepath.Join(t.TempDir(), snapshotFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st := &State{Done: make([]bool, n)}
		if err := loadSnapshot(path, n, st); err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("rejection is not ErrSnapshotCorrupt: %v", err)
			}
			if !reflect.DeepEqual(st, &State{Done: make([]bool, n)}) {
				t.Fatalf("rejected snapshot modified the state: %+v", st)
			}
			return
		}
		if err := os.WriteFile(path, encodeSnapshot(st.Done, st.Snapshot), 0o644); err != nil {
			t.Fatal(err)
		}
		again := &State{Done: make([]bool, n)}
		if err := loadSnapshot(path, n, again); err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("re-encoded snapshot loads %+v, first load %+v", again, st)
		}
	})
}
