package population

import "math"

// Domain-separation tags for the deterministic draw streams. Each
// subscriber attribute pulls from its own stream, so adding a new
// attribute never perturbs existing ones (the stability the
// determinism property test relies on).
const (
	tagEnroll uint64 = 0xE14011 + iota
	tagLeak
	tagLeakTier
	tagLeakDeep
	tagCoverage
	tagCipher
	tagReauth
	tagRAND
)

// splitmix advances a SplitMix64 state — the same scramble
// internal/identity uses to decorrelate persona streams.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix folds the values into one well-scrambled 64-bit draw. Exported
// (as Mix) for the campaign engine, which keys its per-victim radio
// randomness on the same streams. It is the reference formula every
// Stream reproduces.
func Mix(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h = splitmix(h ^ v)
	}
	return h
}

// mix is the package-local shorthand.
func mix(vs ...uint64) uint64 { return Mix(vs...) }

// Unit maps a draw to [0, 1).
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// unit is the package-local shorthand.
func unit(h uint64) float64 { return Unit(h) }

// Stream is a draw stream with its leading values already folded in.
// Mix folds left (h = splitmix(h ^ v)), so the draw for
// (seed, tag, idx, j) is the (seed, tag) prefix extended by idx and
// then by j, and a prefix fixed for a whole population or engine
// costs nothing per draw:
//
//	uint64(NewStream(seed, tag).At(idx).At(j)) == Mix(seed, tag, idx, j)
//
// A hot loop over j pays one splitmix per draw instead of the four a
// variadic Mix call chains.
type Stream uint64

// NewStream returns the (seed, tag) prefix, Mix(seed, tag).
func NewStream(seed, tag uint64) Stream { return Stream(Mix(seed, tag)) }

// At extends the stream by one value.
func (s Stream) At(v uint64) Stream { return Stream(splitmix(uint64(s) ^ v)) }

// below reports Unit(uint64(s)) < p, given t = threshold(p).
func (s Stream) below(t uint64) bool { return uint64(s)>>11 < t }

// threshold converts a probability into the integer bound below
// compares draws against: float64(h>>11)/2⁵³ < p holds exactly when
// h>>11 < ceil(p·2⁵³), because h>>11 is an integer below 2⁵³ and the
// scaling by a power of two is exact. The bound clamps to [0, 2⁵³], so
// p ≤ 0 (or NaN) never draws and p ≥ 1 always does.
func threshold(p float64) uint64 {
	const one = 1 << 53
	x := math.Ceil(p * one)
	switch {
	case !(x > 0):
		return 0
	case x >= one:
		return one
	}
	return uint64(x)
}

// Tags reused by the campaign engine so its draws live in the same
// domain-separated space as the population's.
const (
	TagCoverage = tagCoverage
	TagCipher   = tagCipher
	TagReauth   = tagReauth
	TagRAND     = tagRAND
)
