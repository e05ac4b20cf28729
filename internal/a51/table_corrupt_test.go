package a51

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

// savedTable builds a small real table over a bits-wide key space and
// returns its serialized form.
func savedTable(t testing.TB, bits int) (*Table, []byte) {
	t.Helper()
	space := KeySpace{Base: 0xC118000000000000, Bits: bits}
	table, err := BuildTable(space, TableConfig{Frames: FrameRange(2)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return table, buf.Bytes()
}

func TestTableSaveLoadByteStable(t *testing.T) {
	table, raw := savedTable(t, 8)
	got, err := LoadTable(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Identity() != table.Identity() {
		t.Fatalf("identity drifted: %s != %s", got.Identity(), table.Identity())
	}
	// Save is deterministic (sorted maps), so a byte-equal re-save is a
	// deep-equality check over every chain and overflow entry.
	var again bytes.Buffer
	if err := got.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("reloaded table re-saves differently")
	}
}

// TestLoadTableTruncationMatrix cuts the file at every byte offset:
// each prefix must fail cleanly, never panic or return a table.
func TestLoadTableTruncationMatrix(t *testing.T) {
	_, raw := savedTable(t, 8)
	for cut := 0; cut < len(raw); cut++ {
		if _, err := LoadTable(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d accepted", cut, len(raw))
		}
	}
}

// TestLoadTableBitFlipMatrix flips single bits across the file: the
// magic check, length prefix validation or CRC32C must catch each one.
func TestLoadTableBitFlipMatrix(t *testing.T) {
	_, raw := savedTable(t, 8)
	for off := 0; off < len(raw); off += 3 {
		mut := bytes.Clone(raw)
		mut[off] ^= 1 << (off % 8)
		if _, err := LoadTable(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d accepted", off)
		}
	}
}

func TestLoadTableRejectsV1(t *testing.T) {
	_, raw := savedTable(t, 8)
	mut := bytes.Clone(raw)
	copy(mut, tableMagicV1[:])
	_, err := LoadTable(bytes.NewReader(mut))
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("v1 magic: %v", err)
	}
}

func TestLoadTableRejectsWrongMagic(t *testing.T) {
	if _, err := LoadTable(bytes.NewReader([]byte("NOTATMTOFILE"))); err == nil {
		t.Fatal("junk magic accepted")
	}
}

func TestLoadTableRejectsImplausibleLength(t *testing.T) {
	_, raw := savedTable(t, 8)
	mut := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(mut[8:], maxTableBody+1)
	_, err := LoadTable(bytes.NewReader(mut))
	if !errors.Is(err, ErrTableCorrupt) {
		t.Fatalf("oversized length: %v", err)
	}
}

// seal wraps a body in the v2 framing with a correct CRC, so structural
// tests exercise the field validators rather than the checksum.
func seal(body []byte) []byte {
	out := make([]byte, 0, len(body)+20)
	out = append(out, tableMagic[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, tableCRC))
}

// tinyBody hand-assembles a minimal valid body (bits=8, chainLen=16,
// one frame, one chain, one overflow entry) that mutators below bend
// out of shape one field at a time.
type tinyBody struct {
	base            uint64
	bits            uint32
	chainLen        uint64
	frames          []uint32
	end             uint64
	nchains         uint32
	start           uint64
	length          uint32
	fp              uint64
	nkeys           uint32
	key             uint64
	trailing        []byte
	skipOverflowKey bool
}

func validTiny() tinyBody {
	return tinyBody{
		base: 0xC118000000000000, bits: 8, chainLen: 16,
		frames: []uint32{0},
		end:    1, nchains: 1, start: 2, length: 3,
		fp: 5, nkeys: 1, key: 7,
	}
}

func (b tinyBody) bytes() []byte {
	var buf bytes.Buffer
	u64 := func(v uint64) { binary.Write(&buf, binary.LittleEndian, v) }
	u32 := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) }
	u64(b.base)
	u32(b.bits)
	u64(b.chainLen)
	u32(uint32(len(b.frames)))
	for _, f := range b.frames {
		u32(f)
		u32(1) // nends
		u64(b.end)
		u32(b.nchains)
		u64(b.start)
		u32(b.length)
		u32(1) // nfps
		u64(b.fp)
		u32(b.nkeys)
		if !b.skipOverflowKey {
			u64(b.key)
		}
	}
	buf.Write(b.trailing)
	return buf.Bytes()
}

// fieldCorruptions bend validTiny out of shape one field at a time;
// want is a fragment of the error each must produce.
var fieldCorruptions = []struct {
	name string
	mut  func(*tinyBody)
	want string
}{
	{"bits zero", func(b *tinyBody) { b.bits = 0 }, "geometry"},
	{"bits too wide", func(b *tinyBody) { b.bits = 30 }, "geometry"},
	{"chainLen not power of two", func(b *tinyBody) { b.chainLen = 12 }, "geometry"},
	{"chainLen zero", func(b *tinyBody) { b.chainLen = 0 }, "geometry"},
	{"endpoint outside space", func(b *tinyBody) { b.end = 256 }, "endpoint"},
	{"chain start outside space", func(b *tinyBody) { b.start = 1 << 20 }, "bounds"},
	{"chain length zero", func(b *tinyBody) { b.length = 0 }, "bounds"},
	{"chain length beyond walk", func(b *tinyBody) { b.length = 1 << 30 }, "bounds"},
	{"fingerprint too wide", func(b *tinyBody) { b.fp = 1 << 40 }, "fingerprint"},
	{"overflow key outside space", func(b *tinyBody) { b.key = 300 }, "outside"},
	{"duplicate frame", func(b *tinyBody) { b.frames = []uint32{0, 0} }, "twice"},
	{"frames out of order", func(b *tinyBody) { b.frames = []uint32{1, 0} }, "order"},
	{"chain count exceeds body", func(b *tinyBody) { b.nchains = 1 << 30 }, "exceeds remaining"},
	{"key count exceeds body", func(b *tinyBody) { b.nkeys = 1 << 30 }, "exceeds remaining"},
	{"trailing garbage", func(b *tinyBody) { b.trailing = []byte{0xEE} }, "trailing"},
	{"body truncated mid-record", func(b *tinyBody) { b.skipOverflowKey = true }, "exceeds remaining"},
}

func TestLoadTableFieldValidationMatrix(t *testing.T) {
	if _, err := LoadTable(bytes.NewReader(seal(validTiny().bytes()))); err != nil {
		t.Fatalf("baseline tiny body rejected: %v", err)
	}
	for _, tc := range fieldCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			b := validTiny()
			tc.mut(&b)
			_, err := LoadTable(bytes.NewReader(seal(b.bytes())))
			if !errors.Is(err, ErrTableCorrupt) {
				t.Fatalf("err = %v, want ErrTableCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzLoadTable feeds arbitrary bytes to LoadTable twice: as a whole
// file, and sealed as a body with a valid CRC so mutations reach the
// field validators. Nothing may panic, and a table that loads must
// Save back to exactly the bytes it was loaded from.
func FuzzLoadTable(f *testing.F) {
	// A 4-bit table keeps the seeds a few hundred bytes long, so the
	// fuzzer's minimizer stays cheap.
	_, raw := savedTable(f, 4)
	f.Add(raw)
	f.Add(raw[16 : len(raw)-4]) // the saved body alone
	f.Add(validTiny().bytes())
	for _, tc := range fieldCorruptions {
		b := validTiny()
		tc.mut(&b)
		f.Add(b.bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, seal(data)} {
			table, err := LoadTable(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := table.Save(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("loaded table re-saves differently:\nin  %x\nout %x", in, out.Bytes())
			}
		}
	})
}

func TestTableIdentityDistinguishesGeometry(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 8}
	a, err := BuildTable(space, TableConfig{Frames: FrameRange(2)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildTable(space, TableConfig{Frames: FrameRange(3)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Identity() == b.Identity() {
		t.Fatal("tables with different frame coverage share an identity")
	}
	if a.Identity() != a.Identity() {
		t.Fatal("identity not stable")
	}
}
