package a51

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncryptBurstsBatchMatchesScalar is the batch≡scalar property for
// the encryptor: every lane of EncryptBurstsBatch must produce exactly
// the bytes EncryptBurst produces for the same (Kc, COUNT, payload),
// across ragged batch sizes (partial final blocks), per-lane frames
// (odd lanes carrying COUNT bits ≥22, which both paths ignore) and
// payloads long enough to wrap the 114-bit keystream.
func TestEncryptBurstsBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		kcs := make([]uint64, n)
		frames := make([]uint32, n)
		plain := make([][]byte, n)
		batch := make([][]byte, n)
		for i := range kcs {
			kcs[i] = rng.Uint64()
			frames[i] = rng.Uint32() & 0x3FFFFF // 22-bit COUNT
			if i%2 == 1 {
				frames[i] |= rng.Uint32() << 22
			}
			p := make([]byte, 1+rng.Intn(2*BurstBytes)) // past BurstBytes: wraparound lanes
			rng.Read(p)
			plain[i] = p
			batch[i] = append([]byte(nil), p...)
		}
		EncryptBurstsBatch(kcs, frames, batch)
		for i := range kcs {
			want := EncryptBurst(kcs[i], frames[i], plain[i])
			if !bytes.Equal(batch[i], want) {
				t.Fatalf("n=%d lane %d (kc=%#x frame=%#x len=%d):\nbatch  %x\nscalar %x",
					n, i, kcs[i], frames[i], len(plain[i]), batch[i], want)
			}
		}
		// The involution property: a second pass must restore plaintext.
		EncryptBurstsBatch(kcs, frames, batch)
		for i := range kcs {
			if !bytes.Equal(batch[i], plain[i]) {
				t.Fatalf("n=%d lane %d: double encryption did not restore plaintext", n, i)
			}
		}
	}
}

// TestEncryptBurstsBatchLengthMismatch pins the loud failure mode: the
// three parallel slices must agree on length.
func TestEncryptBurstsBatchLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slice lengths did not panic")
		}
	}()
	EncryptBurstsBatch(make([]uint64, 2), make([]uint32, 1), make([][]byte, 2))
}

// BenchmarkEncryptBurstBatch compares the scalar per-burst encryptor
// with the 64-lane bitsliced batch on full 64-burst blocks — the
// radio-synthesis cost the campaign engine pays per covered victim.
func BenchmarkEncryptBurstBatch(b *testing.B) {
	const n = 64
	kcs := make([]uint64, n)
	frames := make([]uint32, n)
	payloads := make([][]byte, n)
	rng := rand.New(rand.NewSource(2))
	for i := range kcs {
		kcs[i] = rng.Uint64()
		frames[i] = rng.Uint32() & 0x3FFFFF
		payloads[i] = make([]byte, 14)
		rng.Read(payloads[i])
	}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range kcs {
				_ = EncryptBurst(kcs[j], frames[j], payloads[j])
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "bursts/s")
	})
	b.Run("bitsliced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncryptBurstsBatch(kcs, frames, payloads)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "bursts/s")
	})
}
