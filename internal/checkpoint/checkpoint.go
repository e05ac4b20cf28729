// Package checkpoint is the durability layer under long campaigns: an
// append-only, CRC32C-framed run journal plus periodic snapshots, laid
// out in one directory per run, so a multi-hour population sweep that
// dies — kill -9, OOM, power loss — resumes from its last journaled
// shard instead of starting over.
//
// The contract, in write order:
//
//   - MANIFEST.json pins the run's inputs (population seed and
//     fingerprint version, scenario hash, cracker-table identity,
//     shard count and owned shard range). Opening a directory whose
//     manifest disagrees with the caller's is refused loudly, field by
//     field: resuming half a run against different inputs would
//     corrupt the result silently, which is worse than losing it.
//   - journal.log is append-only: one CRC32C-framed record per
//     completed unit of work (a shard index plus an opaque payload —
//     the campaign's serialized partial Summary). Each append is
//     fsynced; a torn tail (the kill-9 signature) is detected by frame
//     length/CRC on resume and truncated away, losing at most the one
//     record that never finished writing — and that shard simply
//     reruns, because shard results are pure functions of the seed.
//   - snapshot.bin periodically folds the journal into one merged
//     payload plus a done-shard bitmap, written to a temp file and
//     atomically renamed, after which the journal is truncated. Resume
//     cost is therefore O(snapshot + records since last snapshot), not
//     O(run). A crash between rename and truncate leaves journal
//     records the bitmap already covers; resume skips them.
//
// Every write path is instrumented with faultinject points that leave
// exactly the on-disk state a crash at that instant would, so the
// recovery invariants are enforced by tests rather than asserted in
// comments.
//
// A Journal is owned by one goroutine (the campaign aggregator); the
// package adds no locking of its own.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"github.com/actfort/actfort/internal/faultinject"
)

// FormatVersion versions the directory layout and frame formats.
const FormatVersion = 1

// DefaultSnapshotEvery is the journal-records-between-snapshots
// default: frequent enough that resume replay stays cheap, rare
// enough that snapshot writes don't dominate shard throughput.
const DefaultSnapshotEvery = 64

// The files of a checkpoint directory.
const (
	manifestFile = "MANIFEST.json"
	journalFile  = "journal.log"
	snapshotFile = "snapshot.bin"
	snapshotTemp = "snapshot.tmp"
	// ResultFile is the final merged payload a completed run writes
	// (atomically); -merge mode combines these across shard ranges.
	ResultFile = "summary.json"
)

// Manifest identifies every input a resumed run must agree on. Two
// manifests that differ in any field describe different runs; Open
// refuses to graft one onto the other's journal.
type Manifest struct {
	// FormatVersion pins the on-disk layout.
	FormatVersion int `json:"formatVersion"`
	// PopulationSeed, PopulationSize, ShardSize, LeakFraction and
	// EnrollmentScale are the population generator's inputs;
	// FingerprintVersion is the generator's draw-pipeline generation
	// (population.FingerprintVersion). Together they pin the world
	// being attacked without materializing it.
	PopulationSeed     int64   `json:"populationSeed"`
	PopulationSize     int     `json:"populationSize"`
	ShardSize          int     `json:"shardSize"`
	LeakFraction       float64 `json:"leakFraction"`
	EnrollmentScale    float64 `json:"enrollmentScale"`
	FingerprintVersion int     `json:"fingerprintVersion"`
	// ScenarioHash digests the normalized scenario (policy, radio
	// environment, budget, segment, platform).
	ScenarioHash string `json:"scenarioHash"`
	// TableIdentity names the cracker backend and, for TMTO tables,
	// the table geometry (key space, chain length, frame set digest).
	TableIdentity string `json:"tableIdentity"`
	// NumShards is the population's total shard count; ShardLo/ShardHi
	// bound the contiguous range [ShardLo, ShardHi) this journal owns.
	// Multi-process runs give each process a disjoint range; -merge
	// validates the ranges tile [0, NumShards).
	NumShards int `json:"numShards"`
	ShardLo   int `json:"shardLo"`
	ShardHi   int `json:"shardHi"`
}

// Diff lists human-readable field differences against other (empty =
// identical). The loud half of the resume refusal.
func (m Manifest) Diff(other Manifest) []string {
	var d []string
	add := func(field string, a, b any) {
		if a != b {
			d = append(d, fmt.Sprintf("%s: journal has %v, caller has %v", field, a, b))
		}
	}
	add("formatVersion", m.FormatVersion, other.FormatVersion)
	add("populationSeed", m.PopulationSeed, other.PopulationSeed)
	add("populationSize", m.PopulationSize, other.PopulationSize)
	add("shardSize", m.ShardSize, other.ShardSize)
	add("leakFraction", m.LeakFraction, other.LeakFraction)
	add("enrollmentScale", m.EnrollmentScale, other.EnrollmentScale)
	add("fingerprintVersion", m.FingerprintVersion, other.FingerprintVersion)
	add("scenarioHash", m.ScenarioHash, other.ScenarioHash)
	add("tableIdentity", m.TableIdentity, other.TableIdentity)
	add("numShards", m.NumShards, other.NumShards)
	add("shardLo", m.ShardLo, other.ShardLo)
	add("shardHi", m.ShardHi, other.ShardHi)
	return d
}

// DiffRun is Diff ignoring the owned shard range — the compatibility
// check between partial results of one multi-process run.
func (m Manifest) DiffRun(other Manifest) []string {
	a, b := m, other
	a.ShardLo, a.ShardHi = 0, 0
	b.ShardLo, b.ShardHi = 0, 0
	return a.Diff(b)
}

// ErrManifestMismatch reports a resume attempt whose inputs changed.
var ErrManifestMismatch = errors.New("checkpoint: run inputs changed since the journal was written")

// ErrSnapshotCorrupt reports an unreadable snapshot file. Unlike a
// torn journal tail (an expected crash artifact, silently truncated),
// a damaged snapshot means lost state: the journal it superseded was
// truncated, so the run cannot be trusted to resume.
var ErrSnapshotCorrupt = errors.New("checkpoint: snapshot corrupt")

// Record is one journaled unit of completed work.
type Record struct {
	// Shard is the completed shard's index.
	Shard int
	// Payload is the caller's serialized per-shard result.
	Payload []byte
}

// State is what Open recovers from a prior run's directory.
type State struct {
	// Done marks journaled shards (length NumShards); DoneCount is its
	// population count.
	Done      []bool
	DoneCount int
	// Snapshot is the last snapshot's merged payload (nil when the run
	// never snapshotted).
	Snapshot []byte
	// Records holds the journal records appended after the snapshot,
	// in append order, deduplicated against the snapshot bitmap.
	Records []Record
	// TruncatedBytes counts torn-tail bytes dropped from the journal —
	// nonzero exactly when the previous process died mid-append.
	TruncatedBytes int64
}

// Options tunes Open.
type Options struct {
	// SnapshotEvery is the number of appends between automatic
	// snapshot eligibility (0 = DefaultSnapshotEvery; the caller still
	// drives Snapshot itself, via Due).
	SnapshotEvery int
	// Fault optionally injects crashes at the instrumented write
	// points (nil = none).
	Fault *faultinject.Injector
}

// Journal is an open checkpoint directory: appends go to the run
// journal, periodic Snapshot calls fold them away. Owned by a single
// goroutine.
type Journal struct {
	dir       string
	manifest  Manifest
	f         *os.File
	fault     *faultinject.Injector
	every     int
	sinceSnap int
	done      []bool
	doneCount int
}

// crcTable is the Castagnoli polynomial every frame is checked with
// (hardware-accelerated on every platform Go targets).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// journalMagic opens every journal frame.
const journalMagic = uint32(0x314A4B43) // "CKJ1"

// snapshotMagic opens the snapshot file.
var snapshotMagic = [8]byte{'A', 'C', 'T', 'F', 'S', 'N', 'P', '1'}

// Open creates or resumes the checkpoint directory at dir for the run
// m describes. On first open it writes the manifest; on reopen it
// refuses (ErrManifestMismatch, with a field-by-field diff) unless the
// manifests agree exactly. The returned State carries everything the
// prior process journaled; a torn journal tail is truncated away and
// an orphaned snapshot temp file removed.
func Open(dir string, m Manifest, opts Options) (*Journal, *State, error) {
	if m.FormatVersion == 0 {
		m.FormatVersion = FormatVersion
	}
	if m.NumShards <= 0 || m.ShardLo < 0 || m.ShardHi > m.NumShards || m.ShardLo >= m.ShardHi {
		return nil, nil, fmt.Errorf("checkpoint: manifest shard range [%d, %d) invalid for %d shards",
			m.ShardLo, m.ShardHi, m.NumShards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	mPath := filepath.Join(dir, manifestFile)
	if prev, err := os.ReadFile(mPath); err == nil {
		var pm Manifest
		if err := json.Unmarshal(prev, &pm); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: unreadable manifest %s: %w", mPath, err)
		}
		if diff := pm.Diff(m); len(diff) > 0 {
			return nil, nil, fmt.Errorf("%w (%s):\n  %s — delete the checkpoint directory to start over",
				ErrManifestMismatch, dir, joinLines(diff))
		}
	} else if os.IsNotExist(err) {
		b, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: encode manifest: %w", err)
		}
		if err := atomicWrite(dir, manifestFile, append(b, '\n')); err != nil {
			return nil, nil, err
		}
	} else {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	// An orphaned snapshot temp is the signature of a crash mid-
	// snapshot-write; the committed snapshot (if any) is authoritative.
	_ = os.Remove(filepath.Join(dir, snapshotTemp))

	st := &State{Done: make([]bool, m.NumShards)}
	if err := loadSnapshot(filepath.Join(dir, snapshotFile), m.NumShards, st); err != nil {
		return nil, nil, err
	}
	if err := recoverJournal(filepath.Join(dir, journalFile), m, st); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: open journal: %w", err)
	}
	every := opts.SnapshotEvery
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	j := &Journal{
		dir:       dir,
		manifest:  m,
		f:         f,
		fault:     opts.Fault,
		every:     every,
		sinceSnap: len(st.Records),
		done:      append([]bool(nil), st.Done...),
		doneCount: st.DoneCount,
	}
	return j, st, nil
}

// Manifest returns the run manifest the journal was opened with.
func (j *Journal) Manifest() Manifest { return j.manifest }

// DoneCount reports how many shards are journaled (snapshot + log).
func (j *Journal) DoneCount() int { return j.doneCount }

// Append journals one completed shard: frame, fsync, mark done. An
// injected crash tears the frame mid-write — the kill-9 signature the
// resume path must survive — and returns faultinject.ErrCrash, which
// the caller must treat as process death.
func (j *Journal) Append(shard int, payload []byte) error {
	if shard < 0 || shard >= j.manifest.NumShards {
		return fmt.Errorf("checkpoint: append shard %d outside [0, %d)", shard, j.manifest.NumShards)
	}
	frame := appendFrame(nil, shard, payload)
	if err := j.fault.At(faultinject.PointJournalAppend); err != nil {
		// Die mid-write: half the frame reaches the disk, exactly what
		// a crash between write and fsync can leave.
		_, _ = j.f.Write(frame[:len(frame)/2])
		_ = j.f.Sync()
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("checkpoint: journal append: %w", err)
	}
	syncStart := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: journal sync: %w", err)
	}
	metJournalFsync.ObserveSince(syncStart)
	metJournalBytes.Add(int64(len(frame)))
	if !j.done[shard] {
		j.done[shard] = true
		j.doneCount++
	}
	j.sinceSnap++
	return nil
}

// Due reports whether enough records accumulated since the last
// snapshot that the caller should fold them into one.
func (j *Journal) Due() bool { return j.sinceSnap >= j.every }

// Snapshot atomically replaces the snapshot file with payload (the
// caller's merged state) plus the done-shard bitmap, then truncates
// the now-redundant journal. Crash-safe at every step: temp write,
// rename and truncate are separately instrumented, and resume handles
// each intermediate state.
func (j *Journal) Snapshot(payload []byte) error {
	snapStart := time.Now()
	full := encodeSnapshot(j.done, payload)
	tmp := filepath.Join(j.dir, snapshotTemp)
	if err := j.fault.At(faultinject.PointSnapshotWrite); err != nil {
		// Die mid-temp-write: a torn temp file, never renamed.
		_ = os.WriteFile(tmp, full[:len(full)/2], 0o644)
		return err
	}
	if err := writeFileSync(tmp, full); err != nil {
		return fmt.Errorf("checkpoint: snapshot write: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapshotFile)); err != nil {
		return fmt.Errorf("checkpoint: snapshot rename: %w", err)
	}
	syncDir(j.dir)
	if err := j.fault.At(faultinject.PointSnapshotRename); err != nil {
		// Die between rename and truncate: the journal still holds
		// records the snapshot bitmap already covers.
		return err
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("checkpoint: journal truncate: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: journal sync: %w", err)
	}
	j.sinceSnap = 0
	if err := j.fault.At(faultinject.PointJournalTruncate); err != nil {
		return err
	}
	metSnapshotBytes.Add(int64(len(full)))
	metSnapshotSecs.ObserveSince(snapStart)
	return nil
}

// WriteResult atomically writes the run's final payload (ResultFile).
func (j *Journal) WriteResult(payload []byte) error {
	return atomicWrite(j.dir, ResultFile, payload)
}

// Close releases the journal file handle.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// encodeSnapshot encodes a snapshot file: magic | shard count |
// done-shard bitmap | len(payload) | payload | CRC32C(count..payload).
func encodeSnapshot(done []bool, payload []byte) []byte {
	full := make([]byte, 0, 8+4+(len(done)+7)/8+4+len(payload)+4)
	full = append(full, snapshotMagic[:]...)
	full = binary.LittleEndian.AppendUint32(full, uint32(len(done)))
	bitmap := make([]byte, (len(done)+7)/8)
	for i, d := range done {
		if d {
			bitmap[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	full = append(full, bitmap...)
	full = binary.LittleEndian.AppendUint32(full, uint32(len(payload)))
	full = append(full, payload...)
	return binary.LittleEndian.AppendUint32(full, crc32.Checksum(full[len(snapshotMagic):], crcTable))
}

// appendFrame encodes one journal frame onto buf:
// magic | shard | len(payload) | payload | CRC32C(shard..payload).
func appendFrame(buf []byte, shard int, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, journalMagic)
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// recoverJournal scans the journal, appending post-snapshot records to
// st and truncating any torn tail in place.
func recoverJournal(path string, m Manifest, st *State) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint: read journal: %w", err)
	}
	off := 0
	good := 0
	for {
		rec, next, ok := nextFrame(data, off, m.NumShards)
		if !ok {
			break
		}
		off = next
		good = next
		if st.Done[rec.Shard] {
			continue // bitmap already covers it (crash between snapshot rename and truncate)
		}
		st.Done[rec.Shard] = true
		st.DoneCount++
		st.Records = append(st.Records, rec)
	}
	if good < len(data) {
		st.TruncatedBytes = int64(len(data) - good)
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("checkpoint: truncate torn journal tail: %w", err)
		}
	}
	return nil
}

// nextFrame decodes the frame at off; ok is false at a clean end, a
// torn tail, or any corruption (all three stop the scan).
func nextFrame(data []byte, off, numShards int) (Record, int, bool) {
	const header = 12 // magic + shard + len
	if len(data)-off < header {
		return Record{}, 0, false
	}
	if binary.LittleEndian.Uint32(data[off:]) != journalMagic {
		return Record{}, 0, false
	}
	shard := binary.LittleEndian.Uint32(data[off+4:])
	plen := binary.LittleEndian.Uint32(data[off+8:])
	if int(shard) >= numShards || plen > uint32(len(data)) {
		return Record{}, 0, false
	}
	end := off + header + int(plen) + 4
	if end > len(data) {
		return Record{}, 0, false
	}
	sum := binary.LittleEndian.Uint32(data[end-4:])
	if crc32.Checksum(data[off+4:end-4], crcTable) != sum {
		return Record{}, 0, false
	}
	payload := append([]byte(nil), data[off+header:end-4]...)
	return Record{Shard: int(shard), Payload: payload}, end, true
}

// loadSnapshot reads the committed snapshot into st (absent = no-op).
func loadSnapshot(path string, numShards int, st *State) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint: read snapshot: %w", err)
	}
	if len(data) < 8+4+4 || [8]byte(data[:8]) != snapshotMagic {
		return fmt.Errorf("%w: %s: bad header", ErrSnapshotCorrupt, path)
	}
	body := data[8 : len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return fmt.Errorf("%w: %s: CRC mismatch", ErrSnapshotCorrupt, path)
	}
	n := int(binary.LittleEndian.Uint32(body))
	if n != numShards {
		return fmt.Errorf("%w: %s: bitmap covers %d shards, run has %d", ErrSnapshotCorrupt, path, n, numShards)
	}
	bm := (n + 7) / 8
	if len(body) < 4+bm+4 {
		return fmt.Errorf("%w: %s: truncated bitmap", ErrSnapshotCorrupt, path)
	}
	bitmap := body[4 : 4+bm]
	plen := int(binary.LittleEndian.Uint32(body[4+bm:]))
	payload := body[4+bm+4:]
	if len(payload) != plen {
		return fmt.Errorf("%w: %s: payload length %d, want %d", ErrSnapshotCorrupt, path, len(payload), plen)
	}
	for i := 0; i < n; i++ {
		if bitmap[i>>3]>>(uint(i)&7)&1 == 1 {
			st.Done[i] = true
			st.DoneCount++
		}
	}
	st.Snapshot = append([]byte(nil), payload...)
	return nil
}

// atomicWrite writes name under dir via temp + fsync + rename.
func atomicWrite(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	if err := writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("checkpoint: commit %s: %w", name, err)
	}
	syncDir(dir)
	return nil
}

// writeFileSync is os.WriteFile plus fsync before close.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames survive power loss;
// best-effort because not every platform allows it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// joinLines renders a diff list for the mismatch error.
func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

// ReadManifest loads the manifest of an existing checkpoint directory
// (merge mode rebuilds the population from it).
func ReadManifest(dir string) (Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: decode manifest: %w", err)
	}
	return m, nil
}

// ReadResult loads a completed run's final payload from dir.
func ReadResult(dir string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, ResultFile))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w (did the run complete?)", err)
	}
	return b, nil
}
