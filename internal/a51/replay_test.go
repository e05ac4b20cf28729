package a51

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// replayTable builds a lookup table for the test's space and frames.
func replayTable(t *testing.T, space KeySpace, frames []uint32, chainLen int) *Table {
	t.Helper()
	table, err := BuildTable(space, TableConfig{Frames: frames, ChainLen: chainLen})
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// TestRecoverBatchMatchesScalar is the replayBatch ≡ scalar-replay
// property test: across chain lengths (from every-index-distinguished
// through merge-collision-heavy long chains in tiny spaces), batch
// sizes exercising sub-64 remainder lanes and multi-block gathers,
// covered and uncovered frames, full-burst and fingerprint-width
// samples and unrecoverable keystreams, RecoverBatch must return
// exactly what Recover returns, sample for sample.
//
// Two cases aim at the batched candidate verifier. fp-collision-tail
// samples are real keys' full-burst keystreams with one bit flipped in
// bits [40, 114): the 40-bit fingerprint still hits the key's chain
// position, so the verifier must reject the candidate and the replay
// must carry on exactly as the scalar matcher would. verify-overflow
// makes every index a distinguished point, so all of a large batch's
// lookups park on their candidates in the same round — several 64-lane
// verification passes at once.
func TestRecoverBatchMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bits     int
		chainLen int
		batch    int
		kind     string // "" = the mixed sample classes below
	}{
		{"dp-everywhere/sub-cutoff", 8, 1, 3, ""},
		{"merge-heavy", 8, 16, 40, ""},
		{"campaign-shape/one-block", 10, 2, 64, ""},
		{"remainder-lane", 10, 4, 65, ""},
		{"multi-block", 12, 2, 200, ""},
		{"sub-cutoff", 12, 8, 7, ""},
		{"fp-collision-tail", 10, 2, 150, "collision"},
		{"verify-overflow", 10, 1, 300, "recoverable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			space := KeySpace{Base: 0xC118000000000000, Bits: tc.bits}
			frames := FrameRange(8)
			table := replayTable(t, space, frames, tc.chainLen)
			n, _ := space.Size()
			rng := rand.New(rand.NewSource(int64(tc.bits*1000 + tc.chainLen)))

			samples := make([]Sample, tc.batch)
			for i := range samples {
				frame := frames[rng.Intn(len(frames))]
				if tc.kind != "" {
					down, _ := New(space.Key(rng.Uint64()%n), frame).KeystreamBurst()
					ks := down[:BurstBytes]
					if tc.kind == "collision" && i%3 != 0 {
						bit := 40 + rng.Intn(BurstBits-40)
						ks[bit/8] ^= 0x80 >> (bit % 8)
					}
					samples[i] = Sample{Keystream: ks, Frame: frame}
					continue
				}
				switch i % 5 {
				case 0, 1, 2: // recoverable: a real key's keystream
					key := space.Key(rng.Uint64() % n)
					down, _ := New(key, frame).KeystreamBurst()
					width := 8
					if i%2 == 0 {
						width = 5 // fingerprint-width: matches ⟺ fp equality
					}
					samples[i] = Sample{Keystream: down[:width], Frame: frame}
				case 3: // junk keystream: almost surely no key matches
					junk := make([]byte, 8)
					rng.Read(junk)
					samples[i] = Sample{Keystream: junk, Frame: frame}
				case 4: // uncovered frame: the bitsliced-sweep fallback
					key := space.Key(rng.Uint64() % n)
					down, _ := New(key, 1000).KeystreamBurst()
					samples[i] = Sample{Keystream: down[:8], Frame: 1000}
				}
			}
			// One unusably short sample rides along.
			if len(samples) > 2 && tc.kind == "" {
				samples[2] = Sample{Keystream: []byte{1, 2}, Frame: frames[0]}
			}

			keys, errs := table.RecoverBatch(context.Background(), samples, space)
			for i, s := range samples {
				wantKey, wantErr := table.Recover(context.Background(), s.Keystream, s.Frame, space)
				if (errs[i] == nil) != (wantErr == nil) ||
					(wantErr != nil && !errors.Is(errs[i], wantErr)) {
					t.Fatalf("sample %d: err = %v, scalar err = %v", i, errs[i], wantErr)
				}
				if wantErr == nil && keys[i] != wantKey {
					t.Fatalf("sample %d: key = %#x, scalar key = %#x", i, keys[i], wantKey)
				}
			}
		})
	}
}

// TestRecoverBatchSpaceMismatch pins the whole-batch space check.
func TestRecoverBatchSpaceMismatch(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 8}
	table := replayTable(t, space, FrameRange(2), 2)
	down, _ := New(space.Key(3), 0).KeystreamBurst()
	_, errs := table.RecoverBatch(context.Background(),
		[]Sample{{Keystream: down[:8], Frame: 0}}, KeySpace{Base: 0, Bits: 8})
	if !errors.Is(errs[0], ErrTableSpaceMismatch) {
		t.Fatalf("err = %v, want ErrTableSpaceMismatch", errs[0])
	}
}

// TestRecoverBatchCancellation: a canceled context must surface on
// every unresolved sample instead of spinning the rounds.
func TestRecoverBatchCancellation(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 10}
	table := replayTable(t, space, FrameRange(2), 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	down, _ := New(space.Key(77), 1).KeystreamBurst()
	_, errs := table.RecoverBatch(ctx, []Sample{{Keystream: down[:8], Frame: 1}}, space)
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", errs[0])
	}
}

// TestRecoverAllScalarFallback: a backend without RecoverBatch goes
// through the per-sample loop with identical results.
func TestRecoverAllScalarFallback(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 8}
	cr := Bitsliced{Workers: 1}
	key := space.Key(200)
	down, _ := New(key, 5).KeystreamBurst()
	junk := []byte{0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, 0x88}
	keys, errs := RecoverAll(context.Background(), cr,
		[]Sample{{Keystream: down[:8], Frame: 5}, {Keystream: junk, Frame: 5}}, space)
	if errs[0] != nil || keys[0] != key {
		t.Fatalf("sample 0: key=%#x err=%v", keys[0], errs[0])
	}
	if !errors.Is(errs[1], ErrKeyNotFound) {
		t.Fatalf("sample 1: err=%v want ErrKeyNotFound", errs[1])
	}
}

// TestRecoverAllUsesBatchBackend: a table goes through RecoverBatch
// (the results must match per-sample Recover either way; this pins the
// dispatch).
func TestRecoverAllUsesBatchBackend(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 8}
	table := replayTable(t, space, FrameRange(4), 2)
	var _ BatchCracker = table // compile-time: Table is a BatchCracker
	keys := make([]uint64, 70)
	samples := make([]Sample, 70)
	for i := range samples {
		keys[i] = space.Key(uint64(i * 3 % 256))
		frame := uint32(i % 4)
		down, _ := New(keys[i], frame).KeystreamBurst()
		samples[i] = Sample{Keystream: down[:8], Frame: frame}
	}
	got, errs := RecoverAll(context.Background(), table, samples, space)
	for i := range samples {
		if errs[i] != nil || got[i] != keys[i] {
			t.Fatalf("sample %d: key=%#x err=%v want %#x", i, got[i], errs[i], keys[i])
		}
	}
}

// TestFPBatchMatchesScalarFingerprint pins the lane-sliced fingerprint
// against the scalar one across per-lane frames — the primitive the
// whole batched replay rests on. Frames are full 32-bit values: both
// paths ignore bits ≥22.
func TestFPBatchMatchesScalarFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, lanes := range []int{1, 7, 63, 64} {
		keys := make([]uint64, lanes)
		frames := make([]uint32, lanes)
		out := make([]uint64, lanes)
		for i := range keys {
			keys[i] = rng.Uint64()
			frames[i] = rng.Uint32()
		}
		fpBatch(keys, frames, out)
		for i := range keys {
			if want := scalarFingerprint(keys[i], frames[i]); out[i] != want {
				t.Fatalf("lanes=%d lane %d: fp=%#x want %#x", lanes, i, out[i], want)
			}
		}
	}
}

// BenchmarkRecoverBatchCampaignShape is the key-recovery layer row of
// the campaign: the campaign engine's table (12-bit space, ChainLen 2,
// every paging frame class) resolving one FeedBatch-sized call of 4096
// paging-burst samples (14-byte keystreams, real keys). It reports
// ns/sample, the figure the per-layer a51.recover_ns_per_sample metric
// tracks.
func BenchmarkRecoverBatchCampaignShape(b *testing.B) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 12}
	frames := PagingFrames()
	table, err := BuildTable(space, TableConfig{Frames: frames, ChainLen: 2})
	if err != nil {
		b.Fatal(err)
	}
	n, _ := space.Size()
	rng := rand.New(rand.NewSource(12))
	samples := make([]Sample, 4096)
	for i := range samples {
		frame := frames[rng.Intn(len(frames))]
		down, _ := New(space.Key(rng.Uint64()%n), frame).KeystreamBurst()
		samples[i] = Sample{Keystream: down[:14], Frame: frame}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := table.RecoverBatch(ctx, samples, space)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/sample")
}
