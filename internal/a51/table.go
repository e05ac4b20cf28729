package a51

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
)

// DefaultTableFrames is the contiguous frame window FrameRange-based
// callers (tests, ablations) conventionally use: one GSM
// 51-multiframe. Tables built with no explicit frame set default to
// PagingFrames() instead — the COUNT frame classes the network can
// actually put a known-plaintext paging burst on — the reduced-scale
// analogue of the Kraken tables covering the full cipher state space.
const DefaultTableFrames = 51

// tableFPBits is the keystream-prefix fingerprint width. 40 bits
// matches minSampleBytes, so every sample a Cracker is required to
// accept can be fingerprinted.
const tableFPBits = 40

// defaultChainLen is the default mean distinguished-point chain
// length. Longer chains store fewer (start, length) pairs but deepen
// the merge basins a lookup must replay; 8 keeps worst-case replays
// small while still shrinking the table severalfold versus a direct
// fingerprint→key index. (A total-coverage table cannot reach the
// full ~chainLen× reduction of classic Hellman tables, which buy it
// by abandoning a fraction of the space.)
const defaultChainLen = 8

// FrameRange returns the frames [0, n) — the window helper shared by
// table builders and the CLI.
func FrameRange(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// TableConfig parameterizes BuildTable.
type TableConfig struct {
	// Frames lists the frame numbers to precompute; nil means
	// PagingFrames(), the COUNT classes paging bursts land on.
	Frames []uint32
	// ChainLen is the target mean distinguished-point chain length
	// (rounded to a power of two, clamped to the space); 0 means
	// defaultChainLen. Longer chains trade lookup time for memory.
	ChainLen int
	// Workers is the build parallelism across frames; 0 means
	// GOMAXPROCS.
	Workers int
}

// chainRef locates one stored chain: it starts at key index start and
// covers length key indices before terminating at its distinguished
// endpoint.
type chainRef struct {
	start  uint64
	length uint32
}

// frameTable is the per-frame slice of the trade-off.
type frameTable struct {
	// chains indexes stored chains by their distinguished endpoint.
	chains map[uint64][]chainRef
	// overflow holds keys on distinguished-point-free cycles, indexed
	// directly by fingerprint so coverage stays total.
	overflow map[uint64][]uint64
}

// Table is the precomputed time–memory trade-off: built once per
// KeySpace, it answers per-message key recovery in O(chain length)
// cipher setups instead of an O(2^Bits) sweep. Chains follow the
// classic distinguished-point construction: the successor of key index
// x is reduce(fingerprint(x)), chains end at indices whose low bits
// are zero, and only (start, length) pairs are stored. Every key in
// the space is on a stored chain or in the overflow index, so lookups
// for covered frames are exact, not probabilistic. Frames outside the
// precomputed window fall back to a bitsliced sweep.
//
// Table is immutable after build and safe for concurrent use.
type Table struct {
	space    KeySpace
	chainLen uint64
	maxWalk  int
	frames   map[uint32]*frameTable
	fallback Bitsliced
}

var _ Cracker = (*Table)(nil)

// ErrTableSpaceMismatch reports a Recover call whose space differs
// from the one the table was built for.
var ErrTableSpaceMismatch = errors.New("a51: table built for a different key space")

// BuildTable precomputes the trade-off for space over cfg.Frames. The
// build costs one fingerprint per (key, frame) pair — the same work an
// exhaustive search pays per message, paid once up front — and uses
// the bitsliced engine 64 keys at a time.
func BuildTable(space KeySpace, cfg TableConfig) (*Table, error) {
	n, ok := space.Size()
	if !ok {
		return nil, ErrSpaceTooLarge
	}
	// The build holds per-worker O(2^Bits) scratch (fingerprints,
	// coverage, in-degrees ≈ 10 bytes/key); 24 bits ≈ 160 MB/worker is
	// the practical ceiling for the in-memory design.
	if space.Bits > 24 {
		return nil, fmt.Errorf("a51: table build supports key spaces up to 24 bits, got %d", space.Bits)
	}
	frames := cfg.Frames
	if len(frames) == 0 {
		frames = PagingFrames()
	}
	chainLen := uint64(cfg.ChainLen)
	if chainLen == 0 {
		chainLen = defaultChainLen
	}
	// Round down to a power of two and keep at least ~8 chains.
	for chainLen&(chainLen-1) != 0 {
		chainLen &= chainLen - 1
	}
	for chainLen > 1 && chainLen > n/8 {
		chainLen >>= 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(frames) {
		workers = len(frames)
	}

	t := &Table{
		space:    space,
		chainLen: chainLen,
		// Stored chains are capped at 4×chainLen: paths that run
		// longer without meeting a distinguished point (P ≈ e^-4) go
		// to the overflow index instead, which bounds both replay cost
		// and the walk below.
		maxWalk: int(4 * chainLen),
		frames:  make(map[uint32]*frameTable, len(frames)),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	frameCh := make(chan uint32)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fps := make([]uint64, n)
			for frame := range frameCh {
				ft := buildFrame(space, frame, fps, chainLen, t.maxWalk)
				mu.Lock()
				t.frames[frame] = ft
				mu.Unlock()
			}
		}()
	}
	for _, f := range frames {
		frameCh <- f
	}
	close(frameCh)
	wg.Wait()
	return t, nil
}

// buildFrame computes one frame's chains. fps is a caller-owned
// scratch buffer of len n, filled with every key's fingerprint via the
// bitsliced engine; chain construction is then pure array walking.
func buildFrame(space KeySpace, frame uint32, fps []uint64, chainLen uint64, maxWalk int) *frameTable {
	n := uint64(len(fps))
	var keys [bsLanes]uint64
	for base := uint64(0); base < n; base += bsLanes {
		count := uint64(bsLanes)
		if base+count > n {
			count = n - base
		}
		batch := keys[:count]
		for j := range batch {
			batch[j] = space.Key(base + uint64(j))
		}
		for l, ks := range bsKeystream(batch, frame, tableFPBits) {
			fps[base+uint64(l)] = fp40(ks)
		}
	}

	ft := &frameTable{
		chains:   make(map[uint64][]chainRef),
		overflow: make(map[uint64][]uint64),
	}
	dpMask := chainLen - 1
	covered := make([]bool, n)
	path := make([]uint64, 0, maxWalk)
	sweep := func(x uint64) {
		if covered[x] {
			return
		}
		path = path[:0]
		cur := x
		stored := false
		for len(path) < maxWalk {
			path = append(path, cur)
			next := fps[cur] & (n - 1)
			if next&dpMask == 0 {
				ft.chains[next] = append(ft.chains[next], chainRef{start: x, length: uint32(len(path))})
				stored = true
				break
			}
			cur = next
		}
		if stored {
			for _, p := range path {
				covered[p] = true
			}
		} else {
			// Distinguished-point-free stretch (a cycle dodging every
			// DP): index its members directly so coverage stays total.
			for _, p := range path {
				if !covered[p] {
					ft.overflow[fps[p]] = append(ft.overflow[fps[p]], p)
					covered[p] = true
				}
			}
		}
	}
	// Source-first sweep: chains started at indices no other index
	// maps to are maximal, so they cover the most keys per stored
	// (start, length) pair; the second pass mops up cycle members.
	indeg := make([]uint8, n)
	for x := uint64(0); x < n; x++ {
		next := fps[x] & (n - 1)
		if indeg[next] < 255 {
			indeg[next]++
		}
	}
	for x := uint64(0); x < n; x++ {
		if indeg[x] == 0 {
			sweep(x)
		}
	}
	for x := uint64(0); x < n; x++ {
		sweep(x)
	}
	return ft
}

// fp40 extracts the 40-bit fingerprint from an MSB-first packed
// keystream sample.
func fp40(ks []byte) uint64 {
	return uint64(ks[0])<<32 | uint64(ks[1])<<24 | uint64(ks[2])<<16 |
		uint64(ks[3])<<8 | uint64(ks[4])
}

// fingerprint recomputes key index x's 40-bit keystream fingerprint
// at lookup time; reducing it modulo the space size yields the chain
// successor.
func (t *Table) fingerprint(x uint64, frame uint32) uint64 {
	var c Cipher
	c.init(t.space.Key(x), frame)
	var fp uint64
	for i := 0; i < tableFPBits; i++ {
		c.clock()
		fp = fp<<1 | uint64(c.outBit())
	}
	return fp
}

// Name implements Cracker.
func (t *Table) Name() string { return "table" }

// Identity digests the table's full geometry — key space, chain
// length and covered frame set — into one string. Campaign checkpoints
// pin it in the run manifest: resuming a journal against a different
// table would change crack outcomes mid-run, so the manifest must
// refuse it loudly.
func (t *Table) Identity() string {
	h := fnv.New64a()
	var b [4]byte
	for _, f := range t.Frames() {
		binary.LittleEndian.PutUint32(b[:], f)
		_, _ = h.Write(b[:])
	}
	return fmt.Sprintf("table/base=%#x/bits=%d/chainlen=%d/frames=%d:%016x",
		t.space.Base, t.space.Bits, t.chainLen, len(t.frames), h.Sum64())
}

// Space returns the key space the table was built for.
func (t *Table) Space() KeySpace { return t.space }

// Frames returns the sorted frame numbers the table covers.
func (t *Table) Frames() []uint32 {
	out := make([]uint32, 0, len(t.frames))
	for f := range t.frames {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Recover implements Cracker: overflow hit, or walk from the observed
// fingerprint to the next distinguished point and replay the chains
// stored there. A miss after a complete walk proves no key in the
// space generates the sample (coverage is total), so it returns
// ErrKeyNotFound without any sweeping. Frames outside the precomputed
// window fall back to the bitsliced sweep.
func (t *Table) Recover(ctx context.Context, keystream []byte, frame uint32, space KeySpace) (uint64, error) {
	if len(keystream) < minSampleBytes {
		return 0, ErrBadKeystream
	}
	if space != t.space {
		return 0, fmt.Errorf("%w: built for base=%#x bits=%d, asked for base=%#x bits=%d",
			ErrTableSpaceMismatch, t.space.Base, t.space.Bits, space.Base, space.Bits)
	}
	metLookups.Inc()
	ft := t.frames[frame]
	if ft == nil {
		metFallbacks.Inc()
		return t.fallback.Recover(ctx, keystream, frame, space)
	}
	n, _ := space.Size()
	fp := fp40(keystream)

	for _, x := range ft.overflow[fp] {
		if key := space.Key(x); matches(key, frame, keystream) {
			return key, nil
		}
	}

	y := fp & (n - 1)
	dpMask := t.chainLen - 1
	for steps := 0; steps <= t.maxWalk; steps++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if y&dpMask == 0 {
			metWalkSteps.Observe(float64(steps))
			metReplays.Add(int64(len(ft.chains[y])))
			// Replay every chain ending at this distinguished point,
			// comparing fingerprints (one cipher setup per position).
			// Chains started from different keys share their tails
			// after a merge, so visited positions are skipped: total
			// replay work is bounded by the number of distinct key
			// indices feeding this endpoint, not the sum of chain
			// lengths. A lone chain has no tails to share, so the
			// per-lookup visited set (a real allocation cost when a
			// campaign runs millions of lookups) is built lazily.
			var visited map[uint64]struct{}
			if len(ft.chains[y]) > 1 {
				visited = make(map[uint64]struct{}, t.maxWalk)
			}
			for _, ch := range ft.chains[y] {
				p := ch.start
				for j := uint32(0); j < ch.length; j++ {
					if _, seen := visited[p]; seen {
						break // shared tail: already replayed
					}
					if visited != nil {
						visited[p] = struct{}{}
					}
					pfp := t.fingerprint(p, frame)
					if pfp == fp {
						if key := space.Key(p); matches(key, frame, keystream) {
							return key, nil
						}
					}
					p = pfp & (n - 1)
				}
			}
			break
		}
		y = t.fingerprint(y, frame) & (n - 1)
	}
	return 0, ErrKeyNotFound
}

// --- serialization (the "ship the tables" step of the real attack) ---

// tableMagic versions the on-disk format: v2 seals the body behind a
// length prefix and a CRC32C, so a truncated download or a bit-flipped
// disk block fails loudly at load instead of replaying garbage chains.
var tableMagic = [8]byte{'A', '5', '1', 'T', 'M', 'T', 'O', '2'}

// tableMagicV1 is the unsealed pre-checksum format, recognized only to
// reject it with a clear message.
var tableMagicV1 = [8]byte{'A', '5', '1', 'T', 'M', 'T', 'O', '1'}

// maxTableBody caps the declared body length (a 24-bit space at the
// densest chain geometry stays far below it); anything larger is a
// corrupt header, not an allocation request.
const maxTableBody = 1 << 32

// ErrTableCorrupt reports a table file that failed structural
// validation: truncated, checksum mismatch, or fields outside the key
// space they claim to cover.
var ErrTableCorrupt = errors.New("a51: corrupt TMTO table file")

// tableCRC is the Castagnoli polynomial sealing the body.
var tableCRC = crc32.MakeTable(crc32.Castagnoli)

// Save writes the table in a flat binary format, so a precomputed
// trade-off can be distributed and reloaded (LoadTable) instead of
// rebuilt — the analogue of downloading the Kraken table set. Layout:
// magic, little-endian u64 body length, body, CRC32C(body).
func (t *Table) Save(w io.Writer) error {
	var body bytes.Buffer
	putU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		body.Write(b[:])
	}
	putU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		body.Write(b[:])
	}
	putU64(t.space.Base)
	putU32(uint32(t.space.Bits))
	putU64(t.chainLen)
	putU32(uint32(len(t.frames)))
	for _, frame := range t.Frames() {
		ft := t.frames[frame]
		putU32(frame)
		ends := make([]uint64, 0, len(ft.chains))
		for e := range ft.chains {
			ends = append(ends, e)
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		putU32(uint32(len(ends)))
		for _, e := range ends {
			putU64(e)
			putU32(uint32(len(ft.chains[e])))
			for _, ch := range ft.chains[e] {
				putU64(ch.start)
				putU32(ch.length)
			}
		}
		fps := make([]uint64, 0, len(ft.overflow))
		for fp := range ft.overflow {
			fps = append(fps, fp)
		}
		sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
		putU32(uint32(len(fps)))
		for _, fp := range fps {
			putU64(fp)
			putU32(uint32(len(ft.overflow[fp])))
			for _, x := range ft.overflow[fp] {
				putU64(x)
			}
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(tableMagic[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(body.Len()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(body.Bytes()); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(body.Bytes(), tableCRC))
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// tableReader walks a validated table body with sticky, positioned
// errors.
type tableReader struct {
	data []byte
	off  int
	err  error
}

func (r *tableReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: at byte %d: %s", ErrTableCorrupt, r.off, fmt.Sprintf(format, args...))
	}
}

func (r *tableReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail("truncated (need 8 bytes, %d left)", len(r.data)-r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *tableReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.data) {
		r.fail("truncated (need 4 bytes, %d left)", len(r.data)-r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

// need pre-checks that count items of size bytes each fit in the
// remaining body, so a corrupt count fails with a clear message
// instead of a slow byte-by-byte EOF walk.
func (r *tableReader) need(count uint32, size int, what string) bool {
	if r.err != nil {
		return false
	}
	if int64(count)*int64(size) > int64(len(r.data)-r.off) {
		r.fail("%s count %d exceeds remaining %d bytes", what, count, len(r.data)-r.off)
		return false
	}
	return true
}

// LoadTable reads a table Save wrote, validating the length prefix,
// the body checksum and every structural field — chain starts,
// lengths, overflow keys and fingerprints must all lie inside the key
// space and walk bounds the header declares. Corruption of any kind
// returns an error wrapping ErrTableCorrupt; no partially built table
// ever escapes.
func LoadTable(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("a51: reading table header: %w", err)
	}
	if magic == tableMagicV1 {
		return nil, errors.New("a51: v1 TMTO table file (no integrity seal); rebuild and re-save the table")
	}
	if magic != tableMagic {
		return nil, errors.New("a51: not an A5/1 TMTO table file")
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading body length: %v", ErrTableCorrupt, err)
	}
	bodyLen := binary.LittleEndian.Uint64(hdr[:])
	if bodyLen > maxTableBody {
		return nil, fmt.Errorf("%w: implausible body length %d", ErrTableCorrupt, bodyLen)
	}
	// Read through a limit instead of allocating bodyLen up front, so
	// a short file claiming a huge body costs only the bytes it has.
	body, err := io.ReadAll(io.LimitReader(br, int64(bodyLen)))
	if err != nil {
		return nil, fmt.Errorf("%w: reading body: %v", ErrTableCorrupt, err)
	}
	if uint64(len(body)) != bodyLen {
		return nil, fmt.Errorf("%w: body truncated: %d of %d bytes", ErrTableCorrupt, len(body), bodyLen)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum truncated: %v", ErrTableCorrupt, err)
	}
	if got := crc32.Checksum(body, tableCRC); got != binary.LittleEndian.Uint32(sum[:]) {
		return nil, fmt.Errorf("%w: CRC32C mismatch (file damaged in transit or at rest)", ErrTableCorrupt)
	}

	tr := &tableReader{data: body}
	t := &Table{frames: make(map[uint32]*frameTable)}
	t.space.Base = tr.u64()
	t.space.Bits = int(tr.u32())
	t.chainLen = tr.u64()
	t.maxWalk = int(4 * t.chainLen)
	if tr.err == nil && (t.space.Bits <= 0 || t.space.Bits > 24 ||
		t.chainLen == 0 || t.chainLen > 1<<20 || t.chainLen&(t.chainLen-1) != 0) {
		tr.fail("invalid geometry (bits=%d chainLen=%d)", t.space.Bits, t.chainLen)
	}
	var n uint64
	if tr.err == nil {
		n = uint64(1) << t.space.Bits
	}
	// Frames, endpoints and overflow fingerprints must be strictly
	// ascending, as Save writes them: a loaded table then re-saves to
	// exactly the bytes it came from, and no duplicate key silently
	// replaces an earlier entry.
	nframes := tr.u32()
	var prevFrame uint32
	for i := uint32(0); i < nframes && tr.err == nil; i++ {
		frame := tr.u32()
		if tr.err == nil && i > 0 && frame <= prevFrame {
			if frame == prevFrame {
				tr.fail("frame %d listed twice", frame)
			} else {
				tr.fail("frame %d out of order after %d", frame, prevFrame)
			}
			break
		}
		prevFrame = frame
		ft := &frameTable{
			chains:   make(map[uint64][]chainRef),
			overflow: make(map[uint64][]uint64),
		}
		nends := tr.u32()
		var prevEnd uint64
		for j := uint32(0); j < nends && tr.err == nil; j++ {
			end := tr.u64()
			if tr.err == nil && end >= n {
				tr.fail("chain endpoint %#x outside %d-bit space", end, t.space.Bits)
				break
			}
			if tr.err == nil && j > 0 && end <= prevEnd {
				tr.fail("chain endpoint %#x not above %#x", end, prevEnd)
				break
			}
			prevEnd = end
			nchains := tr.u32()
			if !tr.need(nchains, 12, "chain") {
				break
			}
			refs := make([]chainRef, 0, nchains)
			for k := uint32(0); k < nchains && tr.err == nil; k++ {
				ref := chainRef{start: tr.u64(), length: tr.u32()}
				if tr.err != nil {
					break
				}
				if ref.start >= n || ref.length == 0 || int(ref.length) > t.maxWalk {
					tr.fail("chain (start=%#x len=%d) outside space/walk bounds", ref.start, ref.length)
					break
				}
				refs = append(refs, ref)
			}
			ft.chains[end] = refs
		}
		nfps := tr.u32()
		var prevFP uint64
		for j := uint32(0); j < nfps && tr.err == nil; j++ {
			fp := tr.u64()
			if tr.err == nil && fp >= 1<<tableFPBits {
				tr.fail("overflow fingerprint %#x wider than %d bits", fp, tableFPBits)
				break
			}
			if tr.err == nil && j > 0 && fp <= prevFP {
				tr.fail("overflow fingerprint %#x not above %#x", fp, prevFP)
				break
			}
			prevFP = fp
			nkeys := tr.u32()
			if !tr.need(nkeys, 8, "overflow key") {
				break
			}
			keys := make([]uint64, 0, nkeys)
			for k := uint32(0); k < nkeys && tr.err == nil; k++ {
				x := tr.u64()
				if tr.err == nil && x >= n {
					tr.fail("overflow key index %#x outside %d-bit space", x, t.space.Bits)
					break
				}
				keys = append(keys, x)
			}
			ft.overflow[fp] = keys
		}
		t.frames[frame] = ft
	}
	if tr.err == nil && tr.off != len(body) {
		tr.fail("%d trailing bytes after last frame", len(body)-tr.off)
	}
	if tr.err != nil {
		return nil, tr.err
	}
	return t, nil
}
