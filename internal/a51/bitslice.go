package a51

import "context"

// bsLanes is the number of candidate keys one bitsliced state carries:
// one key per bit position of a uint64.
const bsLanes = 64

// bsState is a bitsliced A5/1 state: each register bit becomes one
// uint64 word whose 64 bit positions are 64 independent cipher lanes.
// A single boolean operation on a word therefore advances all 64
// candidate ciphers at once — the classic 30–60× per-candidate speedup
// real-world A5/1 crackers rely on.
type bsState struct {
	r1 [19]uint64
	r2 [22]uint64
	r3 [23]uint64
}

// clock advances the registers by the majority rule independently in
// every lane: m1/m2/m3 are per-lane masks of which registers step, and
// each bit plane takes its lower neighbour under its mask,
// r[j] = cur ^ m&(cur^prev). The shift is written out word by word,
// carrying each loaded word down as the next cur, so every register
// word is loaded once and stored once per clock. This is the hottest
// function of every bitsliced pass, and the Go compiler does not
// unroll loops.
func (s *bsState) clock() {
	b1, b2, b3 := s.r1[8], s.r2[10], s.r3[10]
	maj := b1&b2 | b1&b3 | b2&b3
	m1 := ^(b1 ^ maj)
	m2 := ^(b2 ^ maj)
	m3 := ^(b3 ^ maj)
	fb1 := s.r1[18] ^ s.r1[17] ^ s.r1[16] ^ s.r1[13]
	fb2 := s.r2[21] ^ s.r2[20]
	fb3 := s.r3[22] ^ s.r3[21] ^ s.r3[20] ^ s.r3[7]
	c := s.r1[18]
	c, s.r1[18] = s.r1[17], c^m1&(c^s.r1[17])
	c, s.r1[17] = s.r1[16], c^m1&(c^s.r1[16])
	c, s.r1[16] = s.r1[15], c^m1&(c^s.r1[15])
	c, s.r1[15] = s.r1[14], c^m1&(c^s.r1[14])
	c, s.r1[14] = s.r1[13], c^m1&(c^s.r1[13])
	c, s.r1[13] = s.r1[12], c^m1&(c^s.r1[12])
	c, s.r1[12] = s.r1[11], c^m1&(c^s.r1[11])
	c, s.r1[11] = s.r1[10], c^m1&(c^s.r1[10])
	c, s.r1[10] = s.r1[9], c^m1&(c^s.r1[9])
	c, s.r1[9] = s.r1[8], c^m1&(c^s.r1[8])
	c, s.r1[8] = s.r1[7], c^m1&(c^s.r1[7])
	c, s.r1[7] = s.r1[6], c^m1&(c^s.r1[6])
	c, s.r1[6] = s.r1[5], c^m1&(c^s.r1[5])
	c, s.r1[5] = s.r1[4], c^m1&(c^s.r1[4])
	c, s.r1[4] = s.r1[3], c^m1&(c^s.r1[3])
	c, s.r1[3] = s.r1[2], c^m1&(c^s.r1[2])
	c, s.r1[2] = s.r1[1], c^m1&(c^s.r1[1])
	c, s.r1[1] = s.r1[0], c^m1&(c^s.r1[0])
	s.r1[0] = c ^ m1&(c^fb1)
	c = s.r2[21]
	c, s.r2[21] = s.r2[20], c^m2&(c^s.r2[20])
	c, s.r2[20] = s.r2[19], c^m2&(c^s.r2[19])
	c, s.r2[19] = s.r2[18], c^m2&(c^s.r2[18])
	c, s.r2[18] = s.r2[17], c^m2&(c^s.r2[17])
	c, s.r2[17] = s.r2[16], c^m2&(c^s.r2[16])
	c, s.r2[16] = s.r2[15], c^m2&(c^s.r2[15])
	c, s.r2[15] = s.r2[14], c^m2&(c^s.r2[14])
	c, s.r2[14] = s.r2[13], c^m2&(c^s.r2[13])
	c, s.r2[13] = s.r2[12], c^m2&(c^s.r2[12])
	c, s.r2[12] = s.r2[11], c^m2&(c^s.r2[11])
	c, s.r2[11] = s.r2[10], c^m2&(c^s.r2[10])
	c, s.r2[10] = s.r2[9], c^m2&(c^s.r2[9])
	c, s.r2[9] = s.r2[8], c^m2&(c^s.r2[8])
	c, s.r2[8] = s.r2[7], c^m2&(c^s.r2[7])
	c, s.r2[7] = s.r2[6], c^m2&(c^s.r2[6])
	c, s.r2[6] = s.r2[5], c^m2&(c^s.r2[5])
	c, s.r2[5] = s.r2[4], c^m2&(c^s.r2[4])
	c, s.r2[4] = s.r2[3], c^m2&(c^s.r2[3])
	c, s.r2[3] = s.r2[2], c^m2&(c^s.r2[2])
	c, s.r2[2] = s.r2[1], c^m2&(c^s.r2[1])
	c, s.r2[1] = s.r2[0], c^m2&(c^s.r2[0])
	s.r2[0] = c ^ m2&(c^fb2)
	c = s.r3[22]
	c, s.r3[22] = s.r3[21], c^m3&(c^s.r3[21])
	c, s.r3[21] = s.r3[20], c^m3&(c^s.r3[20])
	c, s.r3[20] = s.r3[19], c^m3&(c^s.r3[19])
	c, s.r3[19] = s.r3[18], c^m3&(c^s.r3[18])
	c, s.r3[18] = s.r3[17], c^m3&(c^s.r3[17])
	c, s.r3[17] = s.r3[16], c^m3&(c^s.r3[16])
	c, s.r3[16] = s.r3[15], c^m3&(c^s.r3[15])
	c, s.r3[15] = s.r3[14], c^m3&(c^s.r3[14])
	c, s.r3[14] = s.r3[13], c^m3&(c^s.r3[13])
	c, s.r3[13] = s.r3[12], c^m3&(c^s.r3[12])
	c, s.r3[12] = s.r3[11], c^m3&(c^s.r3[11])
	c, s.r3[11] = s.r3[10], c^m3&(c^s.r3[10])
	c, s.r3[10] = s.r3[9], c^m3&(c^s.r3[9])
	c, s.r3[9] = s.r3[8], c^m3&(c^s.r3[8])
	c, s.r3[8] = s.r3[7], c^m3&(c^s.r3[7])
	c, s.r3[7] = s.r3[6], c^m3&(c^s.r3[6])
	c, s.r3[6] = s.r3[5], c^m3&(c^s.r3[5])
	c, s.r3[5] = s.r3[4], c^m3&(c^s.r3[4])
	c, s.r3[4] = s.r3[3], c^m3&(c^s.r3[3])
	c, s.r3[3] = s.r3[2], c^m3&(c^s.r3[2])
	c, s.r3[2] = s.r3[1], c^m3&(c^s.r3[1])
	c, s.r3[1] = s.r3[0], c^m3&(c^s.r3[0])
	s.r3[0] = c ^ m3&(c^fb3)
}

// out returns the per-lane output bit plane: XOR of the three
// registers' top bits.
func (s *bsState) out() uint64 {
	return s.r1[18] ^ s.r2[21] ^ s.r3[22]
}

// loadPairs initializes the lanes for up to 64 independent (key, frame)
// pairs, mirroring Cipher.init bit for bit: each lane's packed
// post-setup state is one linearState lookup, a single transpose64
// turns the 64 lane words into the 64 register-bit planes, and the 100
// majority clocks follow. Lanes beyond len(keys) start from the zero
// state.
func (s *bsState) loadPairs(keys []uint64, frames []uint32) {
	frames = frames[:len(keys)]
	var w [bsLanes]uint64
	for l, kc := range keys {
		w[63-l] = linearState(kc, frames[l])
	}
	// After the transpose, word 63-k holds state bit k of every lane
	// (lane l in bit l).
	transpose64(&w)
	for j := range s.r1 {
		s.r1[j] = w[63-j]
	}
	for j := range s.r2 {
		s.r2[j] = w[63-r2Shift-j]
	}
	for j := range s.r3 {
		s.r3[j] = w[63-r3Shift-j]
	}
	for i := 0; i < 100; i++ {
		s.clock()
	}
}

// load is the search path's case of loadPairs: up to 64 candidate keys
// under one broadcast frame number.
func (s *bsState) load(keys []uint64, frame uint32) {
	var frames [bsLanes]uint32
	for l := range keys {
		frames[l] = frame
	}
	s.loadPairs(keys, frames[:len(keys)])
}

// bsKeystream generates nbits of downlink keystream for up to 64 keys
// at once, returning one MSB-first packed byte slice per key — the
// bitsliced counterpart of KeystreamBurst, used by the table build and
// the scalar-equivalence property test.
func bsKeystream(keys []uint64, frame uint32, nbits int) [][]byte {
	var s bsState
	s.load(keys, frame)
	out := make([][]byte, len(keys))
	for l := range out {
		out[l] = make([]byte, (nbits+7)/8)
	}
	for i := 0; i < nbits; i++ {
		s.clock()
		plane := s.out()
		for l := range out {
			out[l][i/8] |= byte(plane>>uint(l)&1) << (7 - uint(i)&7)
		}
	}
	return out
}

// bsMatch scans up to 64 candidate keys against a keystream prefix in
// one bitsliced pass. Lanes die on their first mismatched bit (the
// alive mask clears), and the whole batch exits as soon as every lane
// is dead — typically within ~log2(64)+ε output clocks. Survivors are
// re-verified with the scalar matcher before being returned.
func bsMatch(keys []uint64, frame uint32, keystream []byte) (uint64, bool) {
	var s bsState
	s.load(keys, frame)
	alive := ^uint64(0)
	if len(keys) < bsLanes {
		alive = uint64(1)<<uint(len(keys)) - 1
	}
	nbits := len(keystream) * 8
	if nbits > BurstBits {
		nbits = BurstBits
	}
	for i := 0; i < nbits; i++ {
		s.clock()
		want := -uint64(keystream[i/8] >> (7 - uint(i)&7) & 1)
		alive &= ^(s.out() ^ want)
		if alive == 0 {
			return 0, false
		}
	}
	for l := 0; l < len(keys); l++ {
		if alive&(1<<uint(l)) != 0 && matches(keys[l], frame, keystream) {
			return keys[l], true
		}
	}
	return 0, false
}

// Bitsliced is the 64-lane search backend: it packs 64 candidate keys
// into uint64 bit planes and clocks all of them with one sequence of
// boolean operations, batching the key space 64 candidates at a time.
type Bitsliced struct {
	// Workers is the number of concurrent batch scanners: 0 means
	// GOMAXPROCS, 1 serial.
	Workers int
}

var _ Cracker = Bitsliced{}

// Name implements Cracker.
func (b Bitsliced) Name() string { return "bitsliced" }

// Recover implements Cracker.
func (b Bitsliced) Recover(ctx context.Context, keystream []byte, frame uint32, space KeySpace) (uint64, error) {
	if len(keystream) < minSampleBytes {
		return 0, ErrBadKeystream
	}
	n, ok := space.Size()
	if !ok {
		return 0, ErrSpaceTooLarge
	}
	batches := (n + bsLanes - 1) / bsLanes
	return searchStrided(ctx, batches, b.Workers, func(bi uint64) (uint64, bool) {
		var buf [bsLanes]uint64
		base := bi * bsLanes
		count := uint64(bsLanes)
		if base+count > n {
			count = n - base
		}
		keys := buf[:count]
		for j := range keys {
			keys[j] = space.Key(base + uint64(j))
		}
		return bsMatch(keys, frame, keystream)
	})
}
