package a51

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// allBackends builds one of each Cracker over space for table-covered
// frames [0, frames).
func allBackends(t *testing.T, space KeySpace, frames int) []Cracker {
	t.Helper()
	table, err := BuildTable(space, TableConfig{Frames: FrameRange(frames)})
	if err != nil {
		t.Fatal(err)
	}
	return []Cracker{
		Exhaustive{Workers: 1},
		Exhaustive{Workers: 1, FullBurst: true},
		Exhaustive{},
		Bitsliced{},
		Bitsliced{Workers: 1},
		table,
	}
}

func TestCrackerBackendsAgree(t *testing.T) {
	space := KeySpace{Base: 0x5A5A000000000000, Bits: 10}
	for _, frame := range []uint32{0, 7, 33} {
		for _, idx := range []uint64{0, 1, 511, 1023} {
			kc := space.Key(idx)
			down, _ := New(kc, frame).KeystreamBurst()
			for _, cr := range allBackends(t, space, 40) {
				got, err := cr.Recover(context.Background(), down[:8], frame, space)
				if err != nil {
					t.Fatalf("%s: frame=%d idx=%d: %v", cr.Name(), frame, idx, err)
				}
				if got != kc {
					t.Fatalf("%s: frame=%d idx=%d: got %#x want %#x", cr.Name(), frame, idx, got, kc)
				}
			}
		}
	}
}

func TestCrackerBackendsNotFound(t *testing.T) {
	space := KeySpace{Bits: 8}
	outside := uint64(1) << 20
	down, _ := New(outside, 5).KeystreamBurst()
	for _, cr := range allBackends(t, space, 8) {
		if _, err := cr.Recover(context.Background(), down[:8], 5, space); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("%s: err = %v want ErrKeyNotFound", cr.Name(), err)
		}
	}
}

func TestCrackerBackendsShortSample(t *testing.T) {
	for _, cr := range allBackends(t, KeySpace{Bits: 6}, 2) {
		if _, err := cr.Recover(context.Background(), []byte{1, 2}, 0, KeySpace{Bits: 6}); !errors.Is(err, ErrBadKeystream) {
			t.Fatalf("%s: err = %v want ErrBadKeystream", cr.Name(), err)
		}
	}
}

func TestBitslicedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bogus := []byte{0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, 0x88}
	_, err := Bitsliced{Workers: 2}.Recover(ctx, bogus, 0, KeySpace{Bits: 20})
	if err != context.Canceled {
		t.Fatalf("err = %v want context.Canceled", err)
	}
}

func TestBitslicedFullSpaceRejected(t *testing.T) {
	if _, err := (Bitsliced{}).Recover(context.Background(), make([]byte, 8), 0, KeySpace{Bits: 64}); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("err = %v want ErrSpaceTooLarge", err)
	}
}

// TestBitslicedKeystreamEquivalence is the property test: the
// bitsliced engine must generate bit-identical keystream to the scalar
// cipher for random (key, frame) pairs across full and partial lane
// batches. Frames are full 32-bit values: both paths ignore bits ≥22.
func TestBitslicedKeystreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rng.Seed(seed)
		frame := rng.Uint32()
		keys := make([]uint64, 1+rng.Intn(bsLanes))
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		sliced := bsKeystream(keys, frame, BurstBits)
		for l, kc := range keys {
			down, _ := New(kc, frame).KeystreamBurst()
			if !bytes.Equal(sliced[l], down[:]) {
				t.Logf("lane %d: key %#x frame %#x: bitsliced %x != scalar %x", l, kc, frame, sliced[l], down)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBitslicedPartialBatch exercises lanes-shorter-than-64 batches
// and the reference KAT vector through the bitsliced path.
func TestBitslicedPartialBatch(t *testing.T) {
	keys := []uint64{katKey, katKey + 1, 3}
	sliced := bsKeystream(keys, katFrame, BurstBits)
	for l, kc := range keys {
		down, _ := New(kc, katFrame).KeystreamBurst()
		if !bytes.Equal(sliced[l], down[:]) {
			t.Fatalf("lane %d diverges from scalar", l)
		}
	}
}

func TestEncryptBurstWraparound(t *testing.T) {
	// A payload longer than one burst's keystream reuses the downlink
	// block cyclically: byte i is XORed with keystream byte i mod
	// BurstBytes.
	payload := bytes.Repeat([]byte("ABCDEFGHIJ"), 5) // 50 bytes > BurstBytes
	ct := EncryptBurst(katKey, 12, payload)
	if len(ct) != len(payload) {
		t.Fatalf("ciphertext length %d want %d", len(ct), len(payload))
	}
	down, _ := New(katKey, 12).KeystreamBurst()
	for i := range payload {
		if want := payload[i] ^ down[i%BurstBytes]; ct[i] != want {
			t.Fatalf("byte %d: got %#x want %#x (keystream must wrap at %d bytes)", i, ct[i], want, BurstBytes)
		}
	}
	if got := EncryptBurst(katKey, 12, ct); !bytes.Equal(got, payload) {
		t.Fatal("EncryptBurst is not an involution on wrapped payloads")
	}
}

func TestTableRecoverAcrossFrames(t *testing.T) {
	space := KeySpace{Base: 0x1122000000000000, Bits: 12}
	table, err := BuildTable(space, TableConfig{Frames: FrameRange(DefaultTableFrames)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		kc := space.Key(rng.Uint64())
		frame := uint32(rng.Intn(DefaultTableFrames))
		down, _ := New(kc, frame).KeystreamBurst()
		got, err := table.Recover(context.Background(), down[:8], frame, space)
		if err != nil {
			t.Fatalf("trial %d frame %d: %v", trial, frame, err)
		}
		if got != kc {
			t.Fatalf("trial %d: got %#x want %#x", trial, got, kc)
		}
	}
}

func TestTableUncoveredFrameFallsBack(t *testing.T) {
	space := KeySpace{Bits: 8}
	table, err := BuildTable(space, TableConfig{Frames: FrameRange(4)})
	if err != nil {
		t.Fatal(err)
	}
	kc := space.Key(200)
	frame := uint32(999) // far outside the window
	down, _ := New(kc, frame).KeystreamBurst()
	got, err := table.Recover(context.Background(), down[:8], frame, space)
	if err != nil {
		t.Fatal(err)
	}
	if got != kc {
		t.Fatalf("fallback got %#x want %#x", got, kc)
	}
}

func TestTableSpaceMismatch(t *testing.T) {
	table, err := BuildTable(KeySpace{Bits: 6}, TableConfig{Frames: FrameRange(1)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = table.Recover(context.Background(), make([]byte, 8), 0, KeySpace{Bits: 7})
	if !errors.Is(err, ErrTableSpaceMismatch) {
		t.Fatalf("err = %v want ErrTableSpaceMismatch", err)
	}
}

func TestTableSaveLoadRoundTrip(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 10}
	table, err := BuildTable(space, TableConfig{Frames: FrameRange(8), ChainLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Space() != space {
		t.Fatalf("loaded space %+v want %+v", loaded.Space(), space)
	}
	if len(loaded.Frames()) != 8 {
		t.Fatalf("loaded %d frames want 8", len(loaded.Frames()))
	}
	kc := space.Key(777)
	frame := uint32(5)
	down, _ := New(kc, frame).KeystreamBurst()
	got, err := loaded.Recover(context.Background(), down[:8], frame, space)
	if err != nil {
		t.Fatal(err)
	}
	if got != kc {
		t.Fatalf("loaded table got %#x want %#x", got, kc)
	}
}

func TestLoadTableRejectsGarbage(t *testing.T) {
	if _, err := LoadTable(bytes.NewReader([]byte("not a table at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestNewCrackerFactory(t *testing.T) {
	space := KeySpace{Bits: 8}
	for name, want := range map[string]string{
		"":           "bitsliced",
		"bitsliced":  "bitsliced",
		"exhaustive": "exhaustive",
		"parallel":   "exhaustive-parallel",
		"table":      "table",
	} {
		cr, err := NewCracker(name, space, 0)
		if err != nil {
			t.Fatalf("NewCracker(%q): %v", name, err)
		}
		if cr.Name() != want {
			t.Fatalf("NewCracker(%q).Name() = %q want %q", name, cr.Name(), want)
		}
	}
	if _, err := NewCracker("quantum", space, 0); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// The backend-comparison benchmark lives at the repo root as
// BenchmarkAblationCrackKeyspace (bench_test.go), which CI runs; only
// the bitsliced primitive gets a package-local microbenchmark here.
func BenchmarkBitslicedBatch(b *testing.B) {
	space := KeySpace{Base: 0x9900000000000000, Bits: 16}
	down, _ := New(space.Key(65535), 8).KeystreamBurst()
	var keys [bsLanes]uint64
	for i := range keys {
		keys[i] = space.Key(uint64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, hit := bsMatch(keys[:], 8, down[:8]); hit {
			b.Fatal("unexpected match")
		}
	}
}
