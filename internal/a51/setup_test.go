package a51

import (
	"math/rand"
	"testing"
)

// TestLinearStateMatchesClocked checks the table-driven setup against
// the clocked reference: every single key bit, every single frame bit,
// and random (Kc, COUNT) pairs whose COUNT may carry bits ≥22 (which
// both must ignore).
func TestLinearStateMatchesClocked(t *testing.T) {
	check := func(kc uint64, frame uint32) {
		t.Helper()
		if got, want := linearState(kc, frame), loadClocked(kc, frame); got != want {
			t.Fatalf("kc=%#x frame=%#x: linear %#x != clocked %#x", kc, frame, got, want)
		}
	}
	for i := 0; i < 64; i++ {
		check(1<<i, 0)
	}
	for i := 0; i < 22; i++ {
		check(0, 1<<i)
	}
	rng := rand.New(rand.NewSource(14))
	high := 0
	for i := 0; i < 10000; i++ {
		frame := rng.Uint32()
		if frame>>22 != 0 {
			high++
		}
		check(rng.Uint64(), frame)
	}
	if high == 0 {
		t.Fatal("no sample set a frame bit ≥22")
	}
}

// TestLoadPairsMatchesScalarState checks the bitsliced setup plane by
// plane: after loadPairs, lane l of every register-bit plane must equal
// the corresponding bit of a scalar Cipher initialized with lane l's
// (Kc, COUNT), and lanes past the batch must stay zero.
func TestLoadPairsMatchesScalarState(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, lanes := range []int{1, 7, 63, 64} {
		keys := make([]uint64, lanes)
		frames := make([]uint32, lanes)
		for i := range keys {
			keys[i] = rng.Uint64()
			frames[i] = rng.Uint32() // mixed frames, some with bits ≥22
		}
		var s bsState
		s.loadPairs(keys, frames)
		for l := 0; l < bsLanes; l++ {
			var want Cipher
			if l < lanes {
				want.init(keys[l], frames[l])
			}
			var got Cipher
			for j := range s.r1 {
				got.r1 |= uint32(s.r1[j]>>l&1) << j
			}
			for j := range s.r2 {
				got.r2 |= uint32(s.r2[j]>>l&1) << j
			}
			for j := range s.r3 {
				got.r3 |= uint32(s.r3[j]>>l&1) << j
			}
			if got != want {
				t.Fatalf("lanes=%d lane %d: bitsliced state %+v != scalar %+v", lanes, l, got, want)
			}
		}
	}
}
