package a51

// This file is the bitsliced chain-replay engine — the lookup-side
// counterpart of the bitsliced encryptor in encrypt.go. A table lookup
// spends almost all of its time recomputing keystream fingerprints:
// first walking from the observed fingerprint to the next distinguished
// point, then replaying every stored chain that ends there, one cipher
// setup per chain position. Recover does that walk with the scalar
// clock, one keystream at a time; RecoverBatch gathers the candidate
// positions of MANY lookups (all the sessions of a sniffer FeedBatch
// call, plus every chain of each lookup's window) and runs them through
// the existing lane-sliced clock 64 at a time, falling back to the
// scalar clock only for sub-64 remainders below scalarReplayCutoff.
//
// Candidate verification is batched too. A lookup whose fingerprint
// hits parks on that candidate; at the end of each round every parked
// candidate is checked against its sample's keystream in 64-lane
// downlink passes, and each lookup resumes only once its own candidate
// is settled.
//
// Equivalence contract: for every sample, RecoverBatch returns exactly
// what Recover returns. Fingerprints and candidate checks are computed
// in batches, but each lookup consumes them in the scalar path's
// order — chain visit order, shared-tail visited set, one candidate at
// a time — so even pathological fingerprint collisions resolve
// identically.

import (
	"context"
	"fmt"
	"sync"

	"github.com/actfort/actfort/internal/slab"
)

// Sample is one key-recovery request: the keystream derived from a
// known-plaintext burst and the COUNT frame value it was ciphered
// under. It is the unit batched recovery (BatchCracker) works in.
type Sample struct {
	Keystream []byte
	Frame     uint32
}

// BatchCracker is the optional batched extension of Cracker: backends
// that can amortize recovery work across samples — the table backend
// bitslices its chain replays across every sample of a call — implement
// it, and batch-oriented callers (sniffer.FeedBatch) use RecoverAll to
// pick it up. Results must be identical, sample for sample, to calling
// Recover once per sample.
type BatchCracker interface {
	Cracker
	RecoverBatch(ctx context.Context, samples []Sample, space KeySpace) (keys []uint64, errs []error)
}

// RecoverAll resolves every sample through cr: one RecoverBatch call
// when the backend implements BatchCracker, a per-sample Recover loop
// otherwise. keys[i] is meaningful only when errs[i] is nil.
func RecoverAll(ctx context.Context, cr Cracker, samples []Sample, space KeySpace) (keys []uint64, errs []error) {
	if bc, ok := cr.(BatchCracker); ok {
		return bc.RecoverBatch(ctx, samples, space)
	}
	keys = make([]uint64, len(samples))
	errs = make([]error, len(samples))
	for i, s := range samples {
		keys[i], errs[i] = cr.Recover(ctx, s.Keystream, s.Frame, space)
	}
	return keys, errs
}

// scalarReplayCutoff is the lane count below which a gather round uses
// the scalar fingerprint instead of a bitsliced pass. One 64-lane
// fpBatch pass costs about as much as 4.6 scalar fingerprints (2.3 µs
// against 0.50 µs on a 2-core AMD EPYC, go1.24), so the thin tail of a
// batch (the last few walkers, a lone lookup's final chains) is
// cheaper one key at a time. Rounds of five to seven lanes cost about
// the same either way; results do not depend on the cutoff.
const scalarReplayCutoff = 8

// fpBatch computes the tableFPBits-bit keystream fingerprints of up to
// 64 (key, frame) pairs in one pass of the lane-sliced clock: the
// replay-side use of the loadPairs + transpose machinery the encryptor
// introduced. Each lane may carry its own frame, which is what lets a
// FeedBatch-sized batch mix sessions scheduled on different paging
// blocks. out[l] receives lane l's fingerprint, packed like fp40.
func fpBatch(keys []uint64, frames []uint32, out []uint64) {
	var s bsState
	s.loadPairs(keys, frames)
	var planes [64]uint64
	for i := 0; i < tableFPBits; i++ {
		s.clock()
		planes[i] = s.out()
	}
	transpose64(&planes)
	for l := range keys {
		// After the transpose, word (63-l) holds lane l's keystream
		// MSB-first; the fingerprint is its top tableFPBits bits.
		out[l] = planes[63-l] >> (64 - tableFPBits)
	}
}

// lookup phases of the batched state machine.
const (
	phaseWalk   = iota // stepping toward the next distinguished point
	phaseReplay        // consuming chain fingerprints in scalar order
	phaseVerify        // parked on a fingerprint hit at (chainIdx, posIdx)
	phaseDone          // key recovered, exhausted, or errored
)

// lookupState tracks one sample through the batched walk + replay.
type lookupState struct {
	sample int // index into the samples slice
	ft     *frameTable
	frame  uint32
	fp     uint64
	phase  int

	// Walk state: the current chain position and how many
	// distinguished-point checks have run (scalar Recover gives up
	// after maxWalk+1 of them).
	y      uint64
	checks int

	// Replay state: the stored chains at the reached endpoint, the
	// index of this lookup's first cursor, and the scalar-order
	// consumer position (chain index, position within it, current key
	// index, shared-tail visited set). The visited set is the scratch
	// stamp array (gen != 0) for small spaces, a map otherwise; both
	// implement exactly the scalar path's set-membership semantics.
	chains     []chainRef
	cursorBase int
	chainIdx   int
	posIdx     int
	p          uint64
	gen        uint32
	visited    map[uint64]struct{}
}

// replayCursor precomputes the fingerprints of one stored chain, in
// chain order, ahead of the lookup's scalar-order consumer. Cursors
// are what the gather rounds feed through fpBatch.
type replayCursor struct {
	lookup    int    // index into the lookups slice
	pos       uint64 // next key index to fingerprint
	remaining uint32 // chain positions left to compute; 0 = dead
	fps       []uint64
}

// replayScratch is the reusable memory of one RecoverBatch call,
// recycled through a sync.Pool so campaign-scale lookup streams do not
// pay an allocation storm per shard.
type replayScratch struct {
	lookups    []lookupState
	cursors    []replayCursor
	laneKeys   []uint64
	laneFrames []uint32
	laneFPs    []uint64
	laneOwner  []int32 // >= 0: walker (lookup index); < 0: cursor index ^owner
	fpSlab     slab.Slab[uint64]
	// parked lists the lookups in phaseVerify, in the order they
	// parked; resumed collects the ones that park again while
	// verifyParked resumes them.
	parked  []int32
	resumed []int32
	// stamp is the shared-tail visited set for spaces up to
	// stampMaxKeys: stamp[pos] == a lookup's generation means pos was
	// replayed for that lookup. Generations make clearing free — the
	// array persists across calls and only wraps (with one clear) every
	// 2^32 lookups. Larger spaces fall back to a per-lookup map.
	stamp   []uint32
	lastGen uint32
}

// stampMaxKeys bounds the visited stamp array at 4 MiB; the 24-bit
// table build ceiling would want 64 MiB, which is not worth pinning in
// a pooled scratch.
const stampMaxKeys = 1 << 20

// nextGen hands out a fresh, never-in-the-array generation.
func (rs *replayScratch) nextGen() uint32 {
	rs.lastGen++
	if rs.lastGen == 0 { // wrapped: retire every stale stamp
		clear(rs.stamp)
		rs.lastGen = 1
	}
	return rs.lastGen
}

var replayScratchPool = sync.Pool{New: func() any { return new(replayScratch) }}

// fpBuf carves an empty fixed-capacity fingerprint buffer of capacity
// n from the scratch slab arena; carves stay valid as the arena grows
// (see internal/slab), so cursors created early in a batch never alias
// later ones.
func (rs *replayScratch) fpBuf(n int) []uint64 {
	return rs.fpSlab.GrabEmpty(n)
}

func (rs *replayScratch) reset() {
	// Drop the chain/map/buffer references before truncating, so the
	// pooled scratch retains capacity, not table internals.
	clear(rs.lookups)
	clear(rs.cursors)
	rs.lookups = rs.lookups[:0]
	rs.cursors = rs.cursors[:0]
	rs.parked = rs.parked[:0]
	rs.resumed = rs.resumed[:0]
	rs.fpSlab.Reset()
}

// RecoverBatch implements BatchCracker: it resolves every sample with
// the same overflow check, distinguished-point walk and chain replay as
// Recover, but gathers the fingerprint computations of all samples —
// walk steps and chain positions alike — into 64-lane bitsliced passes.
// Samples on frames outside the precomputed window go through the
// bitsliced-sweep fallback exactly as in Recover.
func (t *Table) RecoverBatch(ctx context.Context, samples []Sample, space KeySpace) (keys []uint64, errs []error) {
	keys = make([]uint64, len(samples))
	errs = make([]error, len(samples))
	if space != t.space {
		// Mirror Recover's check order per sample: an unusably short
		// keystream reports ErrBadKeystream even on a mismatched space.
		err := fmt.Errorf("%w: built for base=%#x bits=%d, asked for base=%#x bits=%d",
			ErrTableSpaceMismatch, t.space.Base, t.space.Bits, space.Base, space.Bits)
		for i := range errs {
			if len(samples[i].Keystream) < minSampleBytes {
				errs[i] = ErrBadKeystream
			} else {
				errs[i] = err
			}
		}
		return keys, errs
	}
	n, _ := space.Size()

	rs := replayScratchPool.Get().(*replayScratch)
	defer func() {
		rs.reset()
		replayScratchPool.Put(rs)
	}()

	// Classify: resolve overflow hits immediately, queue covered-frame
	// samples into the batched state machine, defer uncovered frames to
	// the sweep fallback.
	var fallback []int
	for si := range samples {
		s := &samples[si]
		if len(s.Keystream) < minSampleBytes {
			errs[si] = ErrBadKeystream
			continue
		}
		metLookups.Inc()
		ft := t.frames[s.Frame]
		if ft == nil {
			fallback = append(fallback, si)
			continue
		}
		fp := fp40(s.Keystream)
		resolved := false
		for _, x := range ft.overflow[fp] {
			if key := space.Key(x); matches(key, s.Frame, s.Keystream) {
				keys[si] = key
				resolved = true
				break
			}
		}
		if resolved {
			continue
		}
		rs.lookups = append(rs.lookups, lookupState{
			sample: si, ft: ft, frame: s.Frame, fp: fp,
			phase: phaseWalk, y: fp & (n - 1),
		})
	}

	t.runReplayRounds(ctx, rs, samples, space, n, keys, errs)

	metFallbacks.Add(int64(len(fallback)))
	for _, si := range fallback {
		keys[si], errs[si] = t.fallback.Recover(ctx, samples[si].Keystream, samples[si].Frame, space)
	}
	return keys, errs
}

// runReplayRounds drives the batched state machine to completion: each
// round transitions walkers that reached a distinguished point into
// replay, gathers one fingerprint per active walker and cursor, runs
// the gathered lanes through fpBatch (scalar below the cutoff), applies
// the results, pumps each lookup's scalar-order consumer, and settles
// the candidates the consumers parked on.
func (t *Table) runReplayRounds(ctx context.Context, rs *replayScratch, samples []Sample, space KeySpace, n uint64, keys []uint64, errs []error) {
	dpMask := t.chainLen - 1
	for {
		if err := ctx.Err(); err != nil {
			for li := range rs.lookups {
				if rs.lookups[li].phase != phaseDone {
					errs[rs.lookups[li].sample] = err
				}
			}
			return
		}

		// Transition phase: distinguished-point checks, replay setup.
		for li := range rs.lookups {
			lk := &rs.lookups[li]
			if lk.phase != phaseWalk {
				continue
			}
			if lk.y&dpMask == 0 {
				metWalkSteps.Observe(float64(lk.checks))
				lk.phase = phaseReplay
				lk.chains = lk.ft.chains[lk.y]
				metReplays.Add(int64(len(lk.chains)))
				lk.cursorBase = len(rs.cursors)
				lk.gen, lk.visited = 0, nil
				if len(lk.chains) > 1 {
					// Same laziness as the scalar path: a lone chain has
					// no shared tails to skip, so the visited set is only
					// built when merges are possible.
					if n <= stampMaxKeys {
						if uint64(len(rs.stamp)) < n {
							rs.stamp = make([]uint32, n)
						}
						lk.gen = rs.nextGen()
					} else {
						lk.visited = make(map[uint64]struct{}, t.maxWalk)
					}
				}
				for _, ch := range lk.chains {
					rs.cursors = append(rs.cursors, replayCursor{
						lookup:    li,
						pos:       ch.start,
						remaining: ch.length,
						fps:       rs.fpBuf(int(ch.length)),
					})
				}
				// Zero-chain endpoints resolve right here, as the scalar
				// walk does when it breaks out of an empty replay loop.
				if t.pumpLookup(li, rs, n, errs) {
					rs.parked = append(rs.parked, int32(li))
				}
			} else if lk.checks++; lk.checks > t.maxWalk {
				errs[lk.sample] = ErrKeyNotFound
				lk.phase = phaseDone
			}
		}

		// Gather phase: one lane per walker still walking, one per live
		// cursor.
		rs.laneKeys = rs.laneKeys[:0]
		rs.laneFrames = rs.laneFrames[:0]
		rs.laneOwner = rs.laneOwner[:0]
		for li := range rs.lookups {
			lk := &rs.lookups[li]
			if lk.phase == phaseWalk {
				rs.laneKeys = append(rs.laneKeys, space.Key(lk.y))
				rs.laneFrames = append(rs.laneFrames, lk.frame)
				rs.laneOwner = append(rs.laneOwner, int32(li))
			}
		}
		for ci := range rs.cursors {
			cur := &rs.cursors[ci]
			if cur.remaining == 0 {
				continue
			}
			rs.laneKeys = append(rs.laneKeys, space.Key(cur.pos))
			rs.laneFrames = append(rs.laneFrames, rs.lookups[cur.lookup].frame)
			rs.laneOwner = append(rs.laneOwner, int32(^ci))
		}
		if len(rs.laneKeys) == 0 && len(rs.parked) == 0 {
			return
		}

		// Fingerprint phase: full 64-lane blocks through the bitsliced
		// clock; a sub-cutoff remainder runs the scalar clock instead.
		if cap(rs.laneFPs) < len(rs.laneKeys) {
			rs.laneFPs = make([]uint64, len(rs.laneKeys))
		}
		rs.laneFPs = rs.laneFPs[:len(rs.laneKeys)]
		for base := 0; base < len(rs.laneKeys); base += bsLanes {
			end := base + bsLanes
			if end > len(rs.laneKeys) {
				end = len(rs.laneKeys)
			}
			if end-base < scalarReplayCutoff {
				for l := base; l < end; l++ {
					rs.laneFPs[l] = scalarFingerprint(rs.laneKeys[l], rs.laneFrames[l])
				}
				continue
			}
			fpBatch(rs.laneKeys[base:end], rs.laneFrames[base:end], rs.laneFPs[base:end])
		}

		// Apply phase: walkers step, cursors record and step; then each
		// replaying lookup's consumer pumps once, as far as the round's
		// new fingerprints allow.
		for l, owner := range rs.laneOwner {
			fp := rs.laneFPs[l]
			if owner >= 0 {
				lk := &rs.lookups[owner]
				if lk.phase == phaseWalk { // may have errored this round
					lk.y = fp & (n - 1)
				}
				continue
			}
			cur := &rs.cursors[^owner]
			cur.fps = append(cur.fps, fp)
			cur.pos = fp & (n - 1)
			cur.remaining--
		}
		for li := range rs.lookups {
			if t.pumpLookup(li, rs, n, errs) {
				rs.parked = append(rs.parked, int32(li))
			}
		}
		t.verifyParked(rs, samples, space, n, keys, errs)
	}
}

// pumpLookup advances lookup li's consumer: the exact scalar replay
// loop of Recover — chains in stored order, positions in chain order,
// shared tails skipped through the visited set — except that
// fingerprints are read from the cursors' precomputed buffers instead
// of the scalar clock, and a fingerprint hit parks the lookup for
// verifyParked instead of calling the scalar matcher. It stops when it
// runs out of computed fingerprints or parks (reporting true; the
// caller queues the lookup for verification); the final pump resolves
// an exhausted sample with ErrKeyNotFound after the last chain.
func (t *Table) pumpLookup(li int, rs *replayScratch, n uint64, errs []error) (parked bool) {
	lk := &rs.lookups[li]
	if lk.phase != phaseReplay {
		return false
	}
	for lk.chainIdx < len(lk.chains) {
		ch := lk.chains[lk.chainIdx]
		cur := &rs.cursors[lk.cursorBase+lk.chainIdx]
		if lk.posIdx == 0 {
			lk.p = ch.start
		}
		for lk.posIdx < int(ch.length) {
			var seen bool
			if lk.gen != 0 {
				seen = rs.stamp[lk.p] == lk.gen
			} else if lk.visited != nil {
				_, seen = lk.visited[lk.p]
			}
			if seen {
				break // shared tail: already replayed
			}
			if lk.posIdx >= len(cur.fps) {
				return false // cursor has not computed this far yet
			}
			if lk.gen != 0 {
				rs.stamp[lk.p] = lk.gen
			} else if lk.visited != nil {
				lk.visited[lk.p] = struct{}{}
			}
			pfp := cur.fps[lk.posIdx]
			if pfp == lk.fp {
				// Candidate space.Key(lk.p): wait for the verifier.
				lk.phase = phaseVerify
				return true
			}
			lk.p = pfp & (n - 1)
			lk.posIdx++
		}
		// Chain fully consumed (exhausted or shared tail): its cursor
		// has nothing left to contribute.
		cur.remaining = 0
		lk.chainIdx++
		lk.posIdx = 0
	}
	errs[lk.sample] = ErrKeyNotFound
	lk.phase = phaseDone
	return false
}

// verifyParked settles every parked candidate: the candidate keys are
// checked against their samples' keystreams in 64-lane downlink
// passes. A match resolves its lookup and retires its cursors; a miss
// (a fingerprint collision) moves the lookup's consumer past the
// candidate and pumps it on, which can park it again on a later hit
// among the fingerprints already computed — so the passes repeat until
// no lookup is parked.
func (t *Table) verifyParked(rs *replayScratch, samples []Sample, space KeySpace, n uint64, keys []uint64, errs []error) {
	var ks [bsLanes][BurstBytes]byte
	var laneKeys [bsLanes]uint64
	var laneFrames [bsLanes]uint32
	for len(rs.parked) > 0 {
		rs.resumed = rs.resumed[:0]
		for base := 0; base < len(rs.parked); base += bsLanes {
			block := rs.parked[base:min(base+bsLanes, len(rs.parked))]
			for l, li := range block {
				lk := &rs.lookups[li]
				laneKeys[l], laneFrames[l] = space.Key(lk.p), lk.frame
			}
			downlinkBatch(laneKeys[:len(block)], laneFrames[:len(block)], &ks)
			for l, li := range block {
				lk := &rs.lookups[li]
				if prefixMatches(&ks[l], samples[lk.sample].Keystream) {
					keys[lk.sample] = laneKeys[l]
					lk.phase = phaseDone
					for c := 0; c < len(lk.chains); c++ {
						rs.cursors[lk.cursorBase+c].remaining = 0
					}
					continue
				}
				pfp := rs.cursors[lk.cursorBase+lk.chainIdx].fps[lk.posIdx]
				lk.p = pfp & (n - 1)
				lk.posIdx++
				lk.phase = phaseReplay
				if t.pumpLookup(int(li), rs, n, errs) {
					rs.resumed = append(rs.resumed, li)
				}
			}
		}
		rs.parked, rs.resumed = rs.resumed, rs.parked
	}
}

// prefixMatches is matches against a precomputed downlink burst: the
// first min(len(keystream)*8, BurstBits) bits of down must equal the
// keystream's.
func prefixMatches(down *[BurstBytes]byte, keystream []byte) bool {
	nbits := len(keystream) * 8
	if nbits > BurstBits {
		nbits = BurstBits
	}
	full := nbits / 8
	for i := 0; i < full; i++ {
		if down[i] != keystream[i] {
			return false
		}
	}
	if rem := nbits % 8; rem != 0 {
		mask := byte(0xFF) << (8 - rem)
		return (down[full]^keystream[full])&mask == 0
	}
	return true
}

// scalarFingerprint is the one-key fingerprint the sub-cutoff remainder
// lanes use — identical to Table.fingerprint but standalone so the
// replay engine does not need a table receiver per lane.
func scalarFingerprint(key uint64, frame uint32) uint64 {
	var c Cipher
	c.init(key, frame)
	var fp uint64
	for i := 0; i < tableFPBits; i++ {
		c.clock()
		fp = fp<<1 | uint64(c.outBit())
	}
	return fp
}
