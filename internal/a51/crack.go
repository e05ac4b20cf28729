package a51

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// KeySpace describes the subspace the simulated network draws session
// keys from: every key is Base with the low Bits bits free. Bits=64
// (with Base=0) is the full space the real rainbow-table attack
// covers; simulations use 12–24 bits so the search backends stand in
// for the time-memory trade-off (see the package comment for why this
// substitution preserves the attack structure).
type KeySpace struct {
	Base uint64
	Bits int
}

// Size returns the number of keys in the space and whether that count
// is representable. ok is false for Bits >= 64, where 2^64 overflows
// uint64: such a space is effectively unbounded and cannot be
// enumerated by any backend in this package.
func (s KeySpace) Size() (n uint64, ok bool) {
	if s.Bits >= 64 {
		return 0, false
	}
	return 1 << uint(s.Bits), true
}

// Contains reports whether key is a member of the space.
func (s KeySpace) Contains(key uint64) bool {
	if s.Bits >= 64 {
		return true
	}
	mask := uint64(1)<<uint(s.Bits) - 1
	return key&^mask == s.Base&^mask
}

// Key materializes the i-th key of the space.
func (s KeySpace) Key(i uint64) uint64 {
	mask := uint64(1)<<uint(s.Bits) - 1
	return (s.Base &^ mask) | (i & mask)
}

// ErrKeyNotFound reports that no key in the space reproduces the
// observed keystream (wrong frame number, wrong space, or corrupted
// capture).
var ErrKeyNotFound = errors.New("a51: no key in space matches keystream")

// ErrBadKeystream reports an unusably short keystream sample.
var ErrBadKeystream = errors.New("a51: keystream sample too short")

// ErrSpaceTooLarge reports a key space no enumeration backend can
// cover (Bits >= 64).
var ErrSpaceTooLarge = errors.New("a51: key space too large for exhaustive search")

// minSampleBytes is the minimum known-keystream prefix needed to make
// false positives negligible: 5 bytes = 40 bits, so a random wrong key
// survives with probability 2^-40 per candidate.
const minSampleBytes = 5

// RecoverKey searches space for the session key that generates the
// observed downlink keystream prefix for the given frame number.
// keystream is the XOR of captured ciphertext with known plaintext —
// exactly what a sniffer derives from predictable GSM system messages.
func RecoverKey(keystream []byte, frame uint32, space KeySpace) (uint64, error) {
	if len(keystream) < minSampleBytes {
		return 0, ErrBadKeystream
	}
	n, ok := space.Size()
	if !ok {
		return 0, ErrSpaceTooLarge
	}
	for i := uint64(0); i < n; i++ {
		key := space.Key(i)
		if matches(key, frame, keystream) {
			return key, nil
		}
	}
	return 0, ErrKeyNotFound
}

// searchResult is the shared first-match state of a parallel search:
// a CAS-guarded winner slot plus an atomic stop flag the hot loops
// poll instead of a context (one uncontended atomic load per
// candidate, no mutex, no channel select).
type searchResult struct {
	stop   atomic.Bool
	found  atomic.Bool
	winner atomic.Uint64
}

// claim records key as the winner if no other worker got there first,
// and stops the search either way.
func (r *searchResult) claim(key uint64) {
	if r.found.CompareAndSwap(false, true) {
		r.winner.Store(key)
	}
	r.stop.Store(true)
}

// watch mirrors ctx cancellation into the stop flag until done closes.
func (r *searchResult) watch(ctx context.Context, done <-chan struct{}) {
	select {
	case <-ctx.Done():
		r.stop.Store(true)
	case <-done:
	}
}

// searchStrided fans a first-match scan over units [0, n) across
// workers goroutines (0 = GOMAXPROCS) in a strided partition — worker
// w takes w, w+workers, ... Every unit scan polls the shared atomic
// stop flag, ctx cancellation is mirrored into that flag by a watcher,
// and the first hit wins the CAS. It is the one fan-out harness behind
// both the per-key exhaustive search and the per-batch bitsliced one.
func searchStrided(ctx context.Context, n uint64, workers int, scan func(i uint64) (uint64, bool)) (uint64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if uint64(workers) > n {
		workers = int(n)
	}

	var (
		res  searchResult
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	go res.watch(ctx, done)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(w); i < n; i += uint64(workers) {
				if res.stop.Load() {
					return
				}
				if key, hit := scan(i); hit {
					res.claim(key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)

	if res.found.Load() {
		return res.winner.Load(), nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return 0, ErrKeyNotFound
}

// RecoverKeyParallel is RecoverKey fanned out over workers goroutines
// (default: GOMAXPROCS when workers <= 0). The first match wins via an
// atomic compare-and-swap and stops the rest through an atomic flag;
// ctx aborts the search early with ctx.Err().
func RecoverKeyParallel(ctx context.Context, keystream []byte, frame uint32, space KeySpace, workers int) (uint64, error) {
	if len(keystream) < minSampleBytes {
		return 0, ErrBadKeystream
	}
	n, ok := space.Size()
	if !ok {
		return 0, ErrSpaceTooLarge
	}
	return searchStrided(ctx, n, workers, func(i uint64) (uint64, bool) {
		key := space.Key(i)
		return key, matches(key, frame, keystream)
	})
}

// matches reports whether key reproduces the keystream prefix. It
// compares bit by bit as the cipher clocks and bails at the first
// mismatch, so a wrong candidate costs the setup (eleven table lookups
// for the key/frame load, then 100 majority clocks) plus on average two
// output clocks — not a full 228-bit burst generation.
func matches(key uint64, frame uint32, keystream []byte) bool {
	nbits := len(keystream) * 8
	if nbits > BurstBits {
		nbits = BurstBits
	}
	var c Cipher
	c.init(key, frame)
	for i := 0; i < nbits; i++ {
		c.clock()
		want := uint32(keystream[i/8]>>(7-uint(i)&7)) & 1
		if c.outBit() != want {
			return false
		}
	}
	return true
}

// matchesFullBurst is the pre-TMTO reference matcher: it generates the
// complete downlink+uplink burst for every candidate before comparing.
// It survives only as the Exhaustive{FullBurst: true} baseline so the
// backend-comparison ablation can measure the seed cost.
func matchesFullBurst(key uint64, frame uint32, keystream []byte) bool {
	down, _ := New(key, frame).KeystreamBurst()
	limit := len(keystream)
	if limit > BurstBytes {
		limit = BurstBytes
	}
	for i := 0; i < limit; i++ {
		if down[i] != keystream[i] {
			return false
		}
	}
	return true
}

// DeriveKeystream recovers keystream bytes from a ciphertext/plaintext
// pair — the known-plaintext step. The slices must be equal length.
func DeriveKeystream(ciphertext, plaintext []byte) ([]byte, error) {
	if len(ciphertext) != len(plaintext) {
		return nil, errors.New("a51: ciphertext/plaintext length mismatch")
	}
	out := make([]byte, len(ciphertext))
	for i := range ciphertext {
		out[i] = ciphertext[i] ^ plaintext[i]
	}
	return out, nil
}
