// Package a51 implements the A5/1 stream cipher that encrypts GSM
// traffic, plus the known-plaintext session-key recovery the paper's
// sniffing step depends on ("If the SMS transmission is encrypted with
// A5/1 ... existing hacking method can be used to obtain the session
// key", §V.A.2).
//
// The cipher is implemented bit-exactly: three linear feedback shift
// registers (19/22/23 bits) with majority-rule irregular clocking,
// validated against the published reference test vector of Briceno,
// Goldberg and Wagner (1999). The key/frame load (86 regular clocks
// from a zero state) is linear over GF(2), so every cipher path —
// scalar, bitsliced search, encryptor and chain replay — takes the
// post-load state from eleven per-byte table lookups (linearState) and
// clocks only the 100 majority steps and the keystream. The clocked
// load survives unexported as the tables' generator and the tests'
// reference.
//
// The real-world attack uses precomputed rainbow tables over the full
// 64-bit key space (the srlabs "Kraken" tables cited by the paper).
// This package reproduces that time–memory trade-off at reduced scale
// behind the pluggable Cracker interface, with three backends:
//
//   - Exhaustive: the brute-force enumerator (serial or parallel) with
//     an early-exit bit-by-bit matcher.
//   - Bitsliced: packs 64 candidate keys into the bit positions of
//     uint64 words — one word per register bit — and clocks all 64
//     ciphers with the same handful of boolean operations, the classic
//     software speedup the real crackers use. The 64 lanes' loaded
//     states enter the planes through one 64×64 bit transpose.
//   - Table: a precomputed lookup structure (BuildTable) mapping
//     keystream-prefix fingerprints back to candidate keys through
//     distinguished-point chains, the faithful Kraken analogue: one
//     expensive precomputation per key space, then amortized O(chain)
//     work per recovered message instead of a full keyspace sweep.
//
// The simulated network draws session keys from a configurable
// KeySpace subspace (and, for table-driven recovery, wraps frame
// counters into a small window) so the trade-off fits in test-sized
// memory; the attack structure (capture burst → derive keystream from
// known plaintext → invert to Kc → decrypt the rest of the session)
// is identical to the real deployment; only the scale differs.
//
// Batch ≡ scalar invariant: the two 64-lane batch engines — the
// encryptor (EncryptBurstsBatch: 64 independent (Kc, COUNT) bursts
// per boolean-clock pass) and the table chain-replay engine
// (Table.RecoverBatch: the distinguished-point walks and chain
// replays of many lookups gathered into shared lane-sliced passes) —
// are bit-for-bit equivalent to their scalar twins, EncryptBurst and
// Table.Recover. Only the cipher arithmetic is batched; match order,
// shared-tail skipping and error cases are the scalar path's, so
// callers may switch freely (and equivalence tests pin it).
package a51

import (
	"crypto/cipher"
	"math/bits"
)

// Register geometry from the reference implementation.
const (
	r1Mask = 0x07FFFF // 19 bits
	r2Mask = 0x3FFFFF // 22 bits
	r3Mask = 0x7FFFFF // 23 bits

	r1Mid = 0x000100 // clocking tap: bit 8
	r2Mid = 0x000400 // clocking tap: bit 10
	r3Mid = 0x000400 // clocking tap: bit 10

	r1Taps = 0x072000 // feedback: bits 18,17,16,13
	r2Taps = 0x300000 // feedback: bits 21,20
	r3Taps = 0x700080 // feedback: bits 22,21,20,7

	r1Out = 0x040000 // output: bit 18
	r2Out = 0x200000 // output: bit 21
	r3Out = 0x400000 // output: bit 22
)

// BurstBits is the keystream length per direction per GSM frame.
const BurstBits = 114

// BurstBytes is BurstBits rounded up to whole bytes (the final six
// bits of the 15th byte are zero).
const BurstBytes = (BurstBits + 7) / 8

// Cipher is an initialized A5/1 keystream generator for one (Kc,
// frame) pair. It implements crypto/cipher.Stream for byte-oriented
// use; GSM-faithful 114-bit bursts come from KeystreamBurst.
type Cipher struct {
	r1, r2, r3 uint32
}

var _ cipher.Stream = (*Cipher)(nil)

// parity returns the XOR of all bits of x. OnesCount32 compiles to a
// single POPCNT on amd64 — the clock function is the hottest spot of
// every scalar cipher path (burst synthesis, table builds, lookups),
// so the population-scale campaign leans on this being one
// instruction rather than a shift cascade.
func parity(x uint32) uint32 {
	return uint32(bits.OnesCount32(x) & 1)
}

// clockOne advances one register: shift left, feedback into bit 0.
func clockOne(reg, mask, taps uint32) uint32 {
	return ((reg << 1) & mask) | parity(reg&taps)
}

// clockAll advances all three registers (regular clocking, used only
// by the clocked setup reference loadClocked).
func (c *Cipher) clockAll() {
	c.r1 = clockOne(c.r1, r1Mask, r1Taps)
	c.r2 = clockOne(c.r2, r2Mask, r2Taps)
	c.r3 = clockOne(c.r3, r3Mask, r3Taps)
}

// clock advances registers by the majority rule: each register steps
// only if its clocking tap agrees with the majority of the three taps.
// The step decision is computed as a mask-select instead of branches:
// the taps are effectively random bits, so branching here mispredicts
// about half the time, and this is the single hottest function of every
// scalar cipher path (table replays, live sniffing, burst decryption).
func (c *Cipher) clock() {
	b1 := (c.r1 >> 8) & 1  // r1Mid
	b2 := (c.r2 >> 10) & 1 // r2Mid
	b3 := (c.r3 >> 10) & 1 // r3Mid
	maj := b1&b2 | b1&b3 | b2&b3
	m1 := -(b1 ^ maj ^ 1) // all-ones when the register steps
	m2 := -(b2 ^ maj ^ 1)
	m3 := -(b3 ^ maj ^ 1)
	c.r1 = (c.r1 &^ m1) | (clockOne(c.r1, r1Mask, r1Taps) & m1)
	c.r2 = (c.r2 &^ m2) | (clockOne(c.r2, r2Mask, r2Taps) & m2)
	c.r3 = (c.r3 &^ m3) | (clockOne(c.r3, r3Mask, r3Taps) & m3)
}

// outBit returns the current output bit: XOR of the three registers'
// top bits (r1Out/r2Out/r3Out are single-bit masks, so plain shifts
// beat three POPCNTs).
func (c *Cipher) outBit() uint32 {
	return ((c.r1 >> 18) ^ (c.r2 >> 21) ^ (c.r3 >> 22)) & 1
}

// New initializes A5/1 for session key kc and the 22-bit frame number.
// Key bits are loaded LSB-first within each byte, bytes most
// significant first, matching the reference implementation's byte
// array {0x12, 0x23, ...} for kc = 0x1223456789ABCDEF.
func New(kc uint64, frame uint32) *Cipher {
	c := &Cipher{}
	c.init(kc, frame)
	return c
}

// init loads kc and frame into a zeroed cipher state. Hot search loops
// call it on a stack-allocated Cipher to avoid New's heap allocation.
// The 86 regular setup clocks come from the linear map (linearState);
// only the 100 majority clocks run here.
func (c *Cipher) init(kc uint64, frame uint32) {
	st := linearState(kc, frame)
	c.r1 = uint32(st) & r1Mask
	c.r2 = uint32(st>>r2Shift) & r2Mask
	c.r3 = uint32(st>>r3Shift) & r3Mask
	for i := 0; i < 100; i++ {
		c.clock()
	}
}

// Setup-state packing: one uint64 holds r1, r2 and r3 in bits 0–18,
// 19–40 and 41–63.
const (
	r2Shift = 19
	r3Shift = 41
)

// loadClocked is the reference key/frame setup: from a zero state, 64
// regular clocks mixing in the key bits (LSB-first within each byte,
// bytes most significant first), then 22 mixing in the frame bits
// (bits ≥22 never enter). It returns the packed state. It builds the
// setup tables and is the oracle the tests check linearState against.
func loadClocked(kc uint64, frame uint32) uint64 {
	var c Cipher
	for i := 0; i < 64; i++ {
		c.clockAll()
		keyByte := byte(kc >> (56 - 8*uint(i/8)))
		bit := uint32(keyByte>>(uint(i)&7)) & 1
		c.r1 ^= bit
		c.r2 ^= bit
		c.r3 ^= bit
	}
	for i := 0; i < 22; i++ {
		c.clockAll()
		bit := (frame >> uint(i)) & 1
		c.r1 ^= bit
		c.r2 ^= bit
		c.r3 ^= bit
	}
	return uint64(c.r1) | uint64(c.r2)<<r2Shift | uint64(c.r3)<<r3Shift
}

// From a zero state the setup clocks are linear over GF(2) in (Kc,
// COUNT): shifts and feedback are XORs, and the input bits are XORed
// in. The packed post-setup state is therefore the XOR of one table
// entry per input byte — the fact published A5/1 cryptanalysis
// (Biryukov–Shamir–Wagner) builds on. keyTab[i][v] is the state key
// byte (kc>>8i)&0xFF = v loads alone, frameTab[i][v] the state COUNT
// byte (frame>>8i)&0xFF = v loads alone (so frameTab[2] repeats every
// 64 entries: frame bits ≥22 are ignored).
var (
	keyTab   [8][256]uint64
	frameTab [3][256]uint64
)

func init() {
	for i := range keyTab {
		fillSetupTable(&keyTab[i], func(v uint64) uint64 { return loadClocked(v<<(8*i), 0) })
	}
	for i := range frameTab {
		fillSetupTable(&frameTab[i], func(v uint64) uint64 { return loadClocked(0, uint32(v)<<(8*i)) })
	}
}

// fillSetupTable clocks the single-bit byte values through load and
// composes every other entry by XOR from its lowest set bit and the
// rest.
func fillSetupTable(tab *[256]uint64, load func(v uint64) uint64) {
	for v := 1; v < 256; v++ {
		low := v & -v
		if v == low {
			tab[v] = load(uint64(v))
		} else {
			tab[v] = tab[low] ^ tab[v^low]
		}
	}
}

// linearState returns the packed state after the 86 setup clocks for
// (kc, frame): loadClocked, by eleven table lookups.
func linearState(kc uint64, frame uint32) uint64 {
	return keyTab[0][byte(kc)] ^ keyTab[1][byte(kc>>8)] ^
		keyTab[2][byte(kc>>16)] ^ keyTab[3][byte(kc>>24)] ^
		keyTab[4][byte(kc>>32)] ^ keyTab[5][byte(kc>>40)] ^
		keyTab[6][byte(kc>>48)] ^ keyTab[7][byte(kc>>56)] ^
		frameTab[0][byte(frame)] ^ frameTab[1][byte(frame>>8)] ^
		frameTab[2][byte(frame>>16)]
}

// KeystreamBurst produces the two 114-bit keystream blocks for this
// frame: downlink (network→mobile) then uplink. Bits are packed MSB
// first; the trailing six bits of each 15-byte block are zero.
// A fresh Cipher must be used per frame, as in GSM.
func (c *Cipher) KeystreamBurst() (downlink, uplink [BurstBytes]byte) {
	for i := 0; i < BurstBits; i++ {
		c.clock()
		downlink[i/8] |= byte(c.outBit()) << (7 - uint(i)&7)
	}
	for i := 0; i < BurstBits; i++ {
		c.clock()
		uplink[i/8] |= byte(c.outBit()) << (7 - uint(i)&7)
	}
	return downlink, uplink
}

// XORKeyStream XORs src with keystream into dst, implementing
// cipher.Stream. dst and src must overlap entirely or not at all;
// len(dst) must be >= len(src).
func (c *Cipher) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("a51: output smaller than input")
	}
	for i, b := range src {
		var ks byte
		for j := 0; j < 8; j++ {
			c.clock()
			ks |= byte(c.outBit()) << (7 - uint(j))
		}
		dst[i] = b ^ ks
	}
}

// EncryptBurst is a convenience that encrypts (or decrypts — the
// operation is an involution) payload with a fresh cipher for (kc,
// frame) using the downlink keystream, matching how the simulated BTS
// protects each SMS burst.
func EncryptBurst(kc uint64, frame uint32, payload []byte) []byte {
	down, _ := New(kc, frame).KeystreamBurst()
	out := make([]byte, len(payload))
	for i := range payload {
		out[i] = payload[i] ^ down[i%BurstBytes]
	}
	return out
}
