package a51

// This file is the bitsliced *encryptor* — the synthesis-side twin of
// the bitsliced search backend in bitslice.go. Cracking packs 64
// candidate keys against one frame; radio synthesis has the opposite
// shape: 64 independent (Kc, COUNT) pairs, one burst each. The
// population-scale campaign engine encrypts every victim's OTP sessions
// through here: 64 table-driven key/frame loads enter the register
// planes through one transpose (loadPairs), then one pass of the shared
// boolean clock replaces 64 scalar ciphers' majority and keystream
// clocks (and skips the 114 uplink clocks the scalar EncryptBurst pays
// for and throws away).

// BatchLanes is the number of (Kc, COUNT) pairs one bitsliced encryptor
// pass carries: one cipher per bit position of a uint64.
const BatchLanes = bsLanes

// transpose64 transposes a 64×64 bit matrix in place (Hacker's Delight
// §7-3): element (r, c) is bit (63-c) of a[r]. It converts both ways
// between per-lane words and bit planes: loadPairs turns 64 packed lane
// states into the register-bit planes, and the keystream passes turn 64
// output planes (one word per clock, one lane per bit) into 64 per-lane
// keystream words (one word per lane, one clock per bit).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j >>= 1 {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k] ^ (a[k+j] >> j)) & m
			a[k] ^= t
			a[k+j] ^= t << j
		}
		m ^= m << (j >> 1)
	}
}

// downlinkBatch generates the 114-bit downlink keystream burst for up
// to 64 (key, frame) pairs in one bitsliced pass, writing lane l's
// burst into out[l] with the same MSB-first packing KeystreamBurst
// uses. Lanes beyond len(keys) are left untouched.
func downlinkBatch(keys []uint64, frames []uint32, out *[bsLanes][BurstBytes]byte) {
	var s bsState
	s.loadPairs(keys, frames)
	// Collect the output planes — plane i holds every lane's keystream
	// bit i — then transpose 64 planes at a time back into per-lane
	// words. BurstBits = 114 spans two transpose blocks; the unused tail
	// planes of the second block stay zero, so the trailing six bits of
	// byte 14 are zero exactly as the scalar packing leaves them.
	var planes [2][64]uint64
	for i := 0; i < BurstBits; i++ {
		s.clock()
		planes[i>>6][i&63] = s.out()
	}
	for half := 0; half < 2; half++ {
		transpose64(&planes[half])
		for l := range keys {
			// After the transpose, bit (63-i) of word (63-l) is lane l's
			// keystream bit i of this block: the word reads MSB-first, so
			// its bytes are the burst bytes in order.
			w := planes[half][63-l]
			for j := 0; j < 8 && half*8+j < BurstBytes; j++ {
				out[l][half*8+j] = byte(w >> (56 - 8*uint(j)))
			}
		}
	}
}

// EncryptBurstsBatch XORs each payloads[i] in place with the downlink
// keystream of (kcs[i], frames[i]) — the batch counterpart of
// EncryptBurst (an involution, so it decrypts too). Bursts are
// processed BatchLanes at a time, so any batch size is accepted;
// payloads longer than BurstBytes wrap the keystream exactly as
// EncryptBurst does. The three slices must have equal length.
func EncryptBurstsBatch(kcs []uint64, frames []uint32, payloads [][]byte) {
	if len(frames) != len(kcs) || len(payloads) != len(kcs) {
		panic("a51: EncryptBurstsBatch slice lengths differ")
	}
	var ks [bsLanes][BurstBytes]byte
	for base := 0; base < len(kcs); base += bsLanes {
		end := base + bsLanes
		if end > len(kcs) {
			end = len(kcs)
		}
		downlinkBatch(kcs[base:end], frames[base:end], &ks)
		for l, p := range payloads[base:end] {
			for i := range p {
				p[i] ^= ks[l][i%BurstBytes]
			}
		}
	}
}
