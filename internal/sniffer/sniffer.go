// Package sniffer implements the paper's passive GSM interception rig
// (Fig 6): a farm of single-frequency receivers (the 16 Motorola C118
// phones running OsmocomBB), burst reassembly, A5/1 session-key
// recovery via the known-plaintext paging burst, SMS-DELIVER decoding
// and Wireshark-style display filtering (Fig 5).
//
// Coverage is physical: a receiver hears only the ARFCN it is tuned
// to, so interception probability scales with how many of the cell's
// channels the attacker can cover — reproduced by experiment E6.
//
// Batch ≡ scalar invariant: FeedBatch ingests a whole recorded trace
// at once and batches both payload decryption (64-lane a51 encryptor)
// and fresh key recovery (one a51.BatchCracker.RecoverBatch call per
// trace, deduplicated against the session and auth-context caches),
// yet produces exactly the captures, statistics and cache state of
// feeding the same bursts through Feed one at a time. Config's
// ScalarReplay knob forces the per-session crack path so equivalence
// tests and ablations can hold the batch engine against it.
package sniffer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/telecom"
)

// Capture is one fully decoded SMS, the unit Fig 5 displays.
type Capture struct {
	ARFCN      int
	CellID     string
	SessionID  uint32
	Originator string
	Text       string
	Timestamp  time.Time
	// Encrypted records whether the session was A5/1-protected.
	Encrypted bool
	// Kc is the recovered session key (zero for plaintext traffic).
	Kc uint64
	// CrackTime is how long key recovery took (zero for plaintext).
	CrackTime time.Duration
}

// WiresharkLine renders the capture like the paper's Fig 5 screenshot.
func (c Capture) WiresharkLine() string {
	enc := "A5/0"
	if c.Encrypted {
		enc = "A5/1"
	}
	return fmt.Sprintf("%s  ARFCN %d  %s  GSM SMS (%s)  %q",
		c.Timestamp.Format("2006-01-02 15:04:05"), c.ARFCN, c.Originator, enc, c.Text)
}

// Stats summarizes a sniffing run.
type Stats struct {
	BurstsSeen       int
	SessionsComplete int
	MessagesDecoded  int
	CracksAttempted  int
	CracksSucceeded  int
	CrackCacheHits   int
	// KcReuseHits counts sessions decrypted straight from the
	// per-subscriber (IMSI, RAND) cache: the network skipped
	// re-authentication, reused a session key the rig had already
	// cracked, and handed the traffic over for free. KcReuseMisses
	// counts eligible sessions (identity context on the air) whose
	// auth context had not been cracked yet. Campaign metrics consume
	// both to quantify the Kc-reuse weakness at population scale.
	KcReuseHits   int
	KcReuseMisses int
	// A53Abandoned counts complete sessions the rig gave up on because
	// the ciphering mode announced A5/3: the cipher upgrade defeats
	// every A5/1 backend, so no search effort is spent. Fortification
	// sweeps read this as the radio-hardening win.
	A53Abandoned int
	FilteredOut  int
}

// Add accumulates other into s — the merge used when per-shard rigs
// report into one campaign-wide counter set.
func (s *Stats) Add(other Stats) {
	s.BurstsSeen += other.BurstsSeen
	s.SessionsComplete += other.SessionsComplete
	s.MessagesDecoded += other.MessagesDecoded
	s.CracksAttempted += other.CracksAttempted
	s.CracksSucceeded += other.CracksSucceeded
	s.CrackCacheHits += other.CrackCacheHits
	s.KcReuseHits += other.KcReuseHits
	s.KcReuseMisses += other.KcReuseMisses
	s.A53Abandoned += other.A53Abandoned
	s.FilteredOut += other.FilteredOut
}

// Config parameterizes a Sniffer.
type Config struct {
	// MaxReceivers caps simultaneously tuned ARFCNs; the paper's rig
	// had 16 C118 handsets. Zero means DefaultMaxReceivers.
	MaxReceivers int
	// CrackWorkers is the parallelism of key recovery (0 = all cores).
	CrackWorkers int
	// Cracker is the key-recovery backend. Nil selects the bitsliced
	// search (a51.Bitsliced) over CrackWorkers goroutines; a
	// precomputed a51.Table turns per-session recovery into an
	// amortized table lookup.
	Cracker a51.Cracker
	// ScalarReplay forces FeedBatch to resolve session keys one at a
	// time through Cracker.Recover even when the backend implements
	// a51.BatchCracker — the pre-batch scalar chain-replay path, kept
	// for batch≡scalar equivalence tests and ablation benchmarks (the
	// campaign engine's Config.ScalarReplay sets it, like ScalarRadio
	// keeps the per-session radio encoder).
	ScalarReplay bool
	// Filter, when non-nil, restricts Captures to matching messages;
	// non-matching messages are still decoded and counted.
	Filter Filter
}

// DefaultMaxReceivers matches the paper's hardware.
const DefaultMaxReceivers = 16

// ErrTooManyReceivers reports a Tune beyond receiver capacity.
var ErrTooManyReceivers = errors.New("sniffer: not enough receivers for requested ARFCNs")

// Sniffer is the passive interception rig. Create with New, point
// receivers with Tune, then read Captures. Safe for concurrent use.
type Sniffer struct {
	net *telecom.Network
	cfg Config

	mu       sync.Mutex
	cancels  map[int]func()
	sessions map[uint32]*session
	captures []Capture
	stats    Stats
	// kcCache remembers recovered session keys by session ID, so
	// replayed bursts under an already-cracked key (recorded traces,
	// retransmissions) skip recovery entirely. Bounded at kcCacheMax
	// entries: live traffic never reuses session IDs, so only recent
	// sessions are worth remembering.
	kcCache map[uint32]uint64
	// subKc remembers recovered keys by authentication context, so a
	// network that skips re-authentication (telecom.Config.ReauthEvery)
	// hands over every follow-up session of a subscriber after one
	// crack. Keyed on (IMSI, RAND) — both visible on the air in real
	// GSM — and bounded like kcCache.
	subKc map[subKcKey]uint64
	// TPDU decode memo: campaign traffic reassembles the same OTP TPDU
	// for millions of sessions, so record caches the last decode keyed
	// by the raw bytes. Content-addressed, hence correctness-neutral;
	// Reset keeps it.
	lastTPDU []byte
	lastMsg  gsmcodec.Deliver
	lastErr  error
	haveTPDU bool
	// crackObs, when non-nil, additionally receives every batched-crack
	// duration the rig observes into the process-wide
	// sniffer_crack_batch_seconds series. Campaign runs park their
	// run-local crack histogram here for the duration of a rig
	// checkout, so concurrent scenarios each report only their own
	// crack timings.
	crackObs *obs.Histogram
}

// subKcKey identifies one subscriber authentication context.
type subKcKey struct {
	imsi string
	rand [16]byte
}

// kcCacheMax bounds the replay key cache; on overflow an arbitrary
// entry is evicted (sessions are short-lived, so any stale entry is
// equally disposable).
const kcCacheMax = 4096

// session buffers bursts until a transmission is complete. Bursts are
// held by pointer and indexed by Seq: inside FeedBatch they point into
// the caller's trace, Feed stores a copy of each, and a FeedBatch
// session still incomplete when the call returns is adopted into
// rig-owned copies.
type session struct {
	id    uint32
	total int
	// n counts the distinct sequence numbers heard; the session is
	// complete when n reaches total. A repeated Seq replaces the
	// earlier burst without counting, and a Seq outside [0, total)
	// still counts.
	n int
	// slots[seq] is the latest burst heard for seq in [0, total) (nil =
	// not heard); its length is slotCount(total).
	slots []*telecom.RadioBurst
	// extra holds every other sequence number: outside [0, total), or
	// at or beyond maxSlotSeq, so a malformed Total cannot make the rig
	// allocate a slot array of that size.
	extra []seqBurst
	// mapped reports that the session is in Sniffer.sessions.
	mapped bool
}

// seqBurst is one burst held outside the slot array.
type seqBurst struct {
	seq int
	b   *telecom.RadioBurst
}

// maxSlotSeq bounds the slot array; real SMS sessions span a handful
// of bursts.
const maxSlotSeq = 256

// slotCount is the slot array length of a session of total bursts.
func slotCount(total int) int { return min(max(total, 0), maxSlotSeq) }

// put files b under its Seq and reports whether it completed the
// session.
func (sess *session) put(b *telecom.RadioBurst) bool {
	if seq := b.Seq; seq >= 0 && seq < len(sess.slots) {
		if sess.slots[seq] == nil {
			sess.n++
		}
		sess.slots[seq] = b
		return sess.n == sess.total
	}
	for i := range sess.extra {
		if sess.extra[i].seq == b.Seq {
			sess.extra[i].b = b
			return sess.n == sess.total
		}
	}
	sess.extra = append(sess.extra, seqBurst{seq: b.Seq, b: b})
	sess.n++
	return sess.n == sess.total
}

// burst returns the burst heard for seq, or nil.
func (sess *session) burst(seq int) *telecom.RadioBurst {
	if seq >= 0 && seq < len(sess.slots) {
		return sess.slots[seq]
	}
	for _, e := range sess.extra {
		if e.seq == seq {
			return e.b
		}
	}
	return nil
}

// adopt returns a copy of sess whose bursts, payloads included, are
// owned by the rig, so the session outlives the trace it was heard in.
func (sess *session) adopt() *session {
	own := make([]telecom.RadioBurst, 0, sess.n)
	keep := func(b *telecom.RadioBurst) *telecom.RadioBurst {
		own = append(own, *b)
		c := &own[len(own)-1]
		c.Payload = bytes.Clone(b.Payload)
		return c
	}
	h := &session{id: sess.id, total: sess.total, n: sess.n, mapped: true,
		slots: make([]*telecom.RadioBurst, len(sess.slots))}
	for seq, b := range sess.slots {
		if b != nil {
			h.slots[seq] = keep(b)
		}
	}
	for _, e := range sess.extra {
		h.extra = append(h.extra, seqBurst{seq: e.seq, b: keep(e.b)})
	}
	return h
}

// appendPayloadBursts appends the session's payload bursts (seq
// 1..total-1) in order onto dst; ok is false (and dst is returned
// unchanged) when one was lost — the shared framing walk of the scalar
// and batched processing paths.
func (sess *session) appendPayloadBursts(dst []*telecom.RadioBurst) ([]*telecom.RadioBurst, bool) {
	base := len(dst)
	for seq := 1; seq < sess.total; seq++ {
		b := sess.burst(seq)
		if b == nil {
			return dst[:base], false
		}
		dst = append(dst, b)
	}
	return dst, true
}

// New builds a sniffer against a network.
func New(net *telecom.Network, cfg Config) *Sniffer {
	if cfg.MaxReceivers <= 0 {
		cfg.MaxReceivers = DefaultMaxReceivers
	}
	if cfg.Cracker == nil {
		cfg.Cracker = a51.Bitsliced{Workers: cfg.CrackWorkers}
	}
	return &Sniffer{
		net:      net,
		cfg:      cfg,
		cancels:  make(map[int]func()),
		sessions: make(map[uint32]*session),
		kcCache:  make(map[uint32]uint64),
		subKc:    make(map[subKcKey]uint64),
	}
}

// Tune points receivers at the given ARFCNs (idempotent per channel).
// It fails with ErrTooManyReceivers when the rig is out of handsets.
func (s *Sniffer) Tune(arfcns ...int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Count each ARFCN once, however many times the call repeats it —
	// Tune(5, 5) needs one receiver, not two.
	fresh := 0
	seen := make(map[int]bool, len(arfcns))
	for _, a := range arfcns {
		if _, ok := s.cancels[a]; !ok && !seen[a] {
			seen[a] = true
			fresh++
		}
	}
	if len(s.cancels)+fresh > s.cfg.MaxReceivers {
		return fmt.Errorf("%w: tuned %d, requested %d more, capacity %d",
			ErrTooManyReceivers, len(s.cancels), fresh, s.cfg.MaxReceivers)
	}
	for _, a := range arfcns {
		if _, ok := s.cancels[a]; ok {
			continue
		}
		cancel := s.net.Subscribe(a, s.Feed)
		s.cancels[a] = cancel
	}
	return nil
}

// Tuned returns the currently tuned ARFCNs, sorted.
func (s *Sniffer) Tuned() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.cancels))
	for a := range s.cancels {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Stop releases all receivers.
func (s *Sniffer) Stop() {
	s.mu.Lock()
	cancels := make([]func(), 0, len(s.cancels))
	for _, c := range s.cancels {
		cancels = append(cancels, c)
	}
	s.cancels = make(map[int]func())
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Feed processes one burst. It is the Subscribe callback, and is also
// exported for replaying recorded traffic (failure-injection tests
// feed lossy traces directly).
func (s *Sniffer) Feed(b telecom.RadioBurst) {
	s.mu.Lock()
	sess, complete := s.ingestLocked(b)
	s.mu.Unlock()

	if complete {
		s.processSession(sess)
	}
}

// feedScratch is the reusable memory of one FeedBatch call — session
// records, the crack prefetch queue, decryption lanes, payload copies
// and the TPDU assembly buffer — recycled through a sync.Pool so a
// campaign shard's trace costs no per-session allocation storm.
type feedScratch struct {
	// The call's session records, carved in fixed-size blocks so their
	// addresses stay valid as the call grows, and their slot arrays.
	sessBlocks [][]session
	nsess      int
	slots      slab.Slab[*telecom.RadioBurst]
	// touched lists the sessions this call put into or took from
	// Sniffer.sessions; those still there when ingest ends are adopted.
	touched   []*session
	completed []*session
	// Crack prefetch state: crackOf[i] is the sample index queued for
	// completed[i] (-1 when resolution will not need a fresh crack),
	// and pendSess/pendSub dedupe repeats of one session ID or one
	// (IMSI, RAND) auth context within the batch.
	crackOf  []int32
	samples  []a51.Sample
	keys     []uint64
	errs     []error
	share    time.Duration
	pendSess map[uint32]int32
	pendSub  map[subKcKey]int32
	// Decrypt/record state.
	pend     []pendingCapture
	pb       []*telecom.RadioBurst
	payloads [][]byte
	kcs      []uint64
	frames   []uint32
	lanes    [][]byte
	slab     slab.Slab[byte]
	tpdu     []byte
}

// pendingCapture is one resolved session awaiting batched decryption:
// its payload slices live in feedScratch.payloads[pstart:pstart+pcount].
type pendingCapture struct {
	paging         *telecom.RadioBurst
	kc             uint64
	crackTime      time.Duration
	pstart, pcount int32
}

var feedScratchPool = sync.Pool{New: func() any {
	return &feedScratch{
		pendSess: make(map[uint32]int32),
		pendSub:  make(map[subKcKey]int32),
	}
}}

// grab carves an n-byte buffer from the scratch slab arena (every
// byte is overwritten by the caller; see internal/slab for the
// aliasing guarantees).
func (fs *feedScratch) grab(n int) []byte { return fs.slab.Grab(n) }

// sessBlock is the number of session records per scratch block.
const sessBlock = 1024

// session hands out the call's next session record.
func (fs *feedScratch) session(id uint32, total int) *session {
	blk, off := fs.nsess/sessBlock, fs.nsess%sessBlock
	if blk == len(fs.sessBlocks) {
		fs.sessBlocks = append(fs.sessBlocks, make([]session, sessBlock))
	}
	fs.nsess++
	sess := &fs.sessBlocks[blk][off]
	sess.id, sess.total, sess.n, sess.mapped = id, total, 0, false
	sess.slots = fs.slots.Grab(slotCount(total))
	clear(sess.slots) // slab carves are recycled memory
	return sess
}

// reset drops every reference the scratch accumulated (so the pool
// retains capacity, not sessions or payloads) and empties it.
func (fs *feedScratch) reset() {
	for i := 0; i < fs.nsess; i++ {
		sess := &fs.sessBlocks[i/sessBlock][i%sessBlock]
		clear(sess.slots)
		clear(sess.extra)
		sess.slots, sess.extra = nil, sess.extra[:0]
	}
	fs.nsess = 0
	fs.slots.Reset()
	clear(fs.touched)
	fs.touched = fs.touched[:0]
	clear(fs.completed)
	clear(fs.samples)
	clear(fs.pend)
	clear(fs.pb)
	clear(fs.payloads)
	clear(fs.lanes)
	clear(fs.pendSess)
	clear(fs.pendSub)
	fs.completed = fs.completed[:0]
	fs.crackOf = fs.crackOf[:0]
	fs.samples = fs.samples[:0]
	fs.keys, fs.errs, fs.share = nil, nil, 0
	fs.pend = fs.pend[:0]
	fs.pb = fs.pb[:0]
	fs.payloads = fs.payloads[:0]
	fs.kcs = fs.kcs[:0]
	fs.frames = fs.frames[:0]
	fs.lanes = fs.lanes[:0]
	fs.slab.Reset()
	fs.tpdu = fs.tpdu[:0]
}

// FeedBatch ingests a whole recorded trace at once — the campaign
// engine's path. Sessions complete exactly as they would under
// burst-by-burst Feed, but two batch engines replace the per-session
// scalar work: every fresh key recovery the batch needs is resolved in
// ONE a51.BatchCracker.RecoverBatch call (64-lane bitsliced chain
// replay across all sessions; see prefetchCracks), and the A5/1
// payload decryption of every completed session runs through the
// 64-lane bitsliced batch encryptor instead of one scalar cipher per
// burst. Captures, statistics and Kc-cache behavior are identical to
// feeding the same bursts through Feed in order.
//
// The input bursts are only read during the call: sessions refer to
// them in place while the call runs, and a session still incomplete
// when it returns keeps rig-owned copies (payloads included), so
// callers may recycle the trace memory (e.g. a telecom.BurstBuffer)
// as soon as FeedBatch returns.
func (s *Sniffer) FeedBatch(bursts []telecom.RadioBurst) {
	fs := feedScratchPool.Get().(*feedScratch)
	defer func() {
		fs.reset()
		feedScratchPool.Put(fs)
	}()

	s.mu.Lock()
	s.ingestBatchLocked(fs, bursts)
	s.mu.Unlock()

	s.prefetchCracks(fs)

	// Resolve every completed session in trace order — cache hits,
	// prefetched table lookups and scalar fallbacks take the exact
	// paths Feed takes — queueing the encrypted payload bursts of
	// resolvable sessions as decryption lanes. Lossy sessions cost no
	// batched cipher work.
	prefetched := len(fs.crackOf) == len(fs.completed)
	for ci, sess := range fs.completed {
		var pre *crackResult
		if prefetched && fs.crackOf[ci] >= 0 {
			k := fs.crackOf[ci]
			pre = &crackResult{kc: fs.keys[k], err: fs.errs[k], took: fs.share}
		}
		paging := sess.burst(0)
		kc, crackTime, ok := s.resolveSessionPre(paging, pre)
		if !ok {
			continue
		}
		pbStart := len(fs.pb)
		fs.pb, ok = sess.appendPayloadBursts(fs.pb)
		if !ok {
			continue // lost a payload burst
		}
		pstart := int32(len(fs.payloads))
		for _, b := range fs.pb[pbStart:] {
			payload := b.Payload
			if b.Encrypted {
				cp := fs.grab(len(payload))
				copy(cp, payload)
				fs.kcs = append(fs.kcs, kc)
				fs.frames = append(fs.frames, b.Frame)
				fs.lanes = append(fs.lanes, cp)
				payload = cp
			}
			fs.payloads = append(fs.payloads, payload)
		}
		fs.pend = append(fs.pend, pendingCapture{
			paging: paging, kc: kc, crackTime: crackTime,
			pstart: pstart, pcount: int32(len(fs.payloads)) - pstart,
		})
	}
	metFeedLanes.Observe(float64(len(fs.lanes)))
	a51.EncryptBurstsBatch(fs.kcs, fs.frames, fs.lanes)
	for i := range fs.pend {
		p := &fs.pend[i]
		fs.tpdu = fs.tpdu[:0]
		for _, payload := range fs.payloads[p.pstart : p.pstart+p.pcount] {
			fs.tpdu = append(fs.tpdu, payload...)
		}
		s.record(p.paging, p.kc, p.crackTime, fs.tpdu)
	}
}

// ingestBatchLocked files a trace's bursts into sessions exactly as
// burst-by-burst ingestLocked would, collecting completed sessions in
// fs.completed. A session lives in the call's scratch and refers to
// the trace's bursts in place; it enters s.sessions only when a run of
// its bursts ends incomplete, so a trace of contiguous sessions costs
// one map lookup per session. Sessions still incomplete at the end are
// adopted into rig-owned copies. Requires s.mu held.
func (s *Sniffer) ingestBatchLocked(fs *feedScratch, bursts []telecom.RadioBurst) {
	var cur *session
	park := func() {
		if cur != nil && !cur.mapped {
			s.sessions[cur.id] = cur
			cur.mapped = true
			fs.touched = append(fs.touched, cur)
		}
	}
	for i := range bursts {
		b := &bursts[i]
		s.stats.BurstsSeen++
		if cur == nil || cur.id != b.SessionID {
			park()
			if cur = s.sessions[b.SessionID]; cur != nil {
				fs.touched = append(fs.touched, cur)
			} else {
				cur = fs.session(b.SessionID, b.Total)
			}
		}
		if cur.put(b) {
			if cur.mapped {
				delete(s.sessions, cur.id)
				cur.mapped = false
			}
			s.stats.SessionsComplete++
			fs.completed = append(fs.completed, cur)
			cur = nil
		}
	}
	park()
	for _, sess := range fs.touched {
		if sess.mapped {
			s.sessions[sess.id] = sess.adopt()
			sess.mapped = false
		}
	}
}

// prefetchCracks is the batched half of key recovery: one pass over
// the completed sessions decides, against the current cache state,
// which will need a fresh crack — deduplicating repeats of one session
// ID and of one (IMSI, RAND) auth context within the batch, since the
// first crack fills the cache the rest will hit — and resolves all of
// them in a single BatchCracker.RecoverBatch call. The results are
// only a memo: resolution still runs in trace order against the real
// caches (resolveSessionPre), so statistics, cache fills and returned
// keys stay byte-identical to the scalar path; a prefetch the
// sequential pass disagrees with (say, a cache entry evicted between
// passes, or a failed crack a later duplicate session must retry) is
// ignored or recomputed inline.
func (s *Sniffer) prefetchCracks(fs *feedScratch) {
	if s.cfg.ScalarReplay {
		return
	}
	bc, ok := s.cfg.Cracker.(a51.BatchCracker)
	if !ok {
		return
	}
	var plain [telecom.PagingPlaintextLen]byte
	s.mu.Lock()
	crackObs := s.crackObs
	for _, sess := range fs.completed {
		fs.crackOf = append(fs.crackOf, -1)
		paging := sess.burst(0)
		if paging == nil || paging.Cipher == telecom.CipherA53 || !paging.Encrypted {
			continue
		}
		if _, hit := s.kcCache[paging.SessionID]; hit {
			continue
		}
		if _, hit := fs.pendSess[paging.SessionID]; hit {
			continue
		}
		subKey := subKcKey{imsi: paging.IMSI, rand: paging.RAND}
		if paging.IMSI != "" {
			if _, hit := s.subKc[subKey]; hit {
				continue
			}
			if _, hit := fs.pendSub[subKey]; hit {
				continue
			}
		}
		if len(paging.Payload) != len(plain) {
			continue // DeriveKeystream would reject it; resolve scalar
		}
		telecom.FillPagingPlaintext(plain[:], paging.SessionID)
		ks := fs.grab(len(plain))
		for i := range plain {
			ks[i] = paging.Payload[i] ^ plain[i]
		}
		idx := int32(len(fs.samples))
		fs.samples = append(fs.samples, a51.Sample{Keystream: ks, Frame: paging.Frame})
		fs.crackOf[len(fs.crackOf)-1] = idx
		fs.pendSess[paging.SessionID] = idx
		if paging.IMSI != "" {
			fs.pendSub[subKey] = idx
		}
	}
	s.mu.Unlock()
	if len(fs.samples) == 0 {
		return
	}
	start := time.Now()
	fs.keys, fs.errs = a51.RecoverAll(context.Background(), bc, fs.samples, s.net.KeySpace())
	metCrackBatch.ObserveSince(start)
	if crackObs != nil {
		crackObs.ObserveSince(start)
	}
	// Per-capture CrackTime is the amortized share of the batch — the
	// honest per-message cost of an amortized engine.
	fs.share = time.Since(start) / time.Duration(len(fs.samples))
}

// ingestLocked buffers one burst, returning the session and whether
// this burst completed it. Requires s.mu held.
func (s *Sniffer) ingestLocked(b telecom.RadioBurst) (*session, bool) {
	s.stats.BurstsSeen++
	sess, ok := s.sessions[b.SessionID]
	if !ok {
		sess = &session{id: b.SessionID, total: b.Total, mapped: true,
			slots: make([]*telecom.RadioBurst, slotCount(b.Total))}
		s.sessions[b.SessionID] = sess
	}
	if sess.put(&b) {
		delete(s.sessions, b.SessionID)
		sess.mapped = false
		s.stats.SessionsComplete++
		return sess, true
	}
	return sess, false
}

// processSession cracks (if needed), decodes and records one complete
// transmission — the scalar per-session path live traffic goes
// through.
func (s *Sniffer) processSession(sess *session) {
	paging := sess.burst(0)
	kc, crackTime, ok := s.resolveSession(paging)
	if !ok {
		return
	}
	pb, ok := sess.appendPayloadBursts(make([]*telecom.RadioBurst, 0, sess.total-1))
	if !ok {
		return // lost a payload burst
	}
	tpdu := make([]byte, 0, len(pb)*16)
	for _, b := range pb {
		payload := b.Payload
		if b.Encrypted {
			payload = a51.EncryptBurst(kc, b.Frame, payload)
		}
		tpdu = append(tpdu, payload...)
	}
	s.record(paging, kc, crackTime, tpdu)
}

// crackResult carries a batch-prefetched key recovery into
// resolveSessionPre: the key (or error) RecoverBatch produced for this
// session's sample, and the amortized share of the batch wall time.
type crackResult struct {
	kc   uint64
	err  error
	took time.Duration
}

// resolveSession produces the session key for one complete
// transmission from its paging burst — replay cache, per-subscriber
// (IMSI, RAND) cache, or a fresh crack through the backend — updating
// the crack statistics. ok is false when the session is unusable:
// paging burst lost (nil), A5/3 announced, or recovery failed.
func (s *Sniffer) resolveSession(paging *telecom.RadioBurst) (kc uint64, crackTime time.Duration, ok bool) {
	return s.resolveSessionPre(paging, nil)
}

// resolveSessionPre is resolveSession with an optional prefetched
// crack: when the caches miss and pre is non-nil, the batch's result
// stands in for the Cracker.Recover call (the sample was derived from
// the same paging burst, so the result is the same by determinism of
// the backend); everything else — cache consultation order, statistic
// increments, cache fills and eviction — is the scalar path, executed
// in the caller's session order.
func (s *Sniffer) resolveSessionPre(paging *telecom.RadioBurst, pre *crackResult) (kc uint64, crackTime time.Duration, ok bool) {
	if paging == nil {
		return 0, 0, false // lost the paging burst: no known plaintext, no crack
	}
	if paging.Cipher == telecom.CipherA53 {
		// The ciphering mode travels in the clear; A5/3 is beyond every
		// backend, so the rig abandons the session without searching.
		s.mu.Lock()
		s.stats.A53Abandoned++
		s.mu.Unlock()
		metA53Abandoned.Inc()
		return 0, 0, false
	}
	if !paging.Encrypted {
		return 0, 0, true
	}

	subKey := subKcKey{imsi: paging.IMSI, rand: paging.RAND}
	subEligible := paging.IMSI != ""
	s.mu.Lock()
	cached, hit := s.kcCache[paging.SessionID]
	if hit {
		s.stats.CrackCacheHits++
		metCrackCacheHits.Inc()
	} else if subEligible {
		// Session unseen — but the network may have reused an
		// authentication context the rig already cracked.
		if k, ok := s.subKc[subKey]; ok {
			cached, hit = k, true
			s.stats.KcReuseHits++
			metKcReuseHits.Inc()
		} else {
			s.stats.KcReuseMisses++
			metKcReuseMisses.Inc()
		}
	}
	s.mu.Unlock()
	if hit {
		return cached, 0, true
	}

	if pre != nil {
		// The batch already replayed this sample through the backend;
		// consume its result instead of re-walking the chains. The
		// derivation step is skipped too: prefetchCracks only queued a
		// sample whose known plaintext derived cleanly.
		s.mu.Lock()
		s.stats.CracksAttempted++
		s.mu.Unlock()
		metCracksAttempted.Inc()
		if pre.err != nil {
			return 0, 0, false
		}
		kc, crackTime = pre.kc, pre.took
	} else {
		start := time.Now()
		ks, err := a51.DeriveKeystream(paging.Payload, telecom.PagingPlaintext(paging.SessionID))
		if err != nil {
			return 0, 0, false
		}
		s.mu.Lock()
		s.stats.CracksAttempted++
		s.mu.Unlock()
		metCracksAttempted.Inc()
		kc, err = s.cfg.Cracker.Recover(context.Background(), ks, paging.Frame, s.net.KeySpace())
		if err != nil {
			return 0, 0, false
		}
		crackTime = time.Since(start)
	}
	metCracksSucceeded.Inc()
	s.mu.Lock()
	s.stats.CracksSucceeded++
	if len(s.kcCache) >= kcCacheMax {
		for id := range s.kcCache {
			delete(s.kcCache, id)
			break
		}
	}
	s.kcCache[paging.SessionID] = kc
	if subEligible {
		if len(s.subKc) >= kcCacheMax {
			for k := range s.subKc {
				delete(s.subKc, k)
				break
			}
		}
		s.subKc[subKey] = kc
	}
	s.mu.Unlock()
	return kc, crackTime, true
}

// record decodes a session's reassembled TPDU and files the capture
// under the session's paging burst. tpdu is only read during the call
// (the memo copies it), so callers may pass a recycled assembly buffer.
func (s *Sniffer) record(paging *telecom.RadioBurst, kc uint64, crackTime time.Duration, tpdu []byte) {
	s.mu.Lock()
	hit := s.haveTPDU && bytes.Equal(tpdu, s.lastTPDU)
	msg, err := s.lastMsg, s.lastErr
	s.mu.Unlock()
	if !hit {
		// Decode outside the lock: live rigs with heterogeneous traffic
		// miss the memo on most messages and must not serialize decoding
		// behind the ingest mutex. Two concurrent misses both decode and
		// the last memo write wins — content-keyed, so still correct.
		msg, err = gsmcodec.UnmarshalDeliver(tpdu)
		s.mu.Lock()
		s.lastMsg, s.lastErr = msg, err
		s.lastTPDU = append(s.lastTPDU[:0], tpdu...)
		s.haveTPDU = true
		s.mu.Unlock()
	}
	if err != nil {
		return
	}

	capt := Capture{
		ARFCN:      paging.ARFCN,
		CellID:     paging.CellID,
		SessionID:  paging.SessionID,
		Originator: msg.Originator,
		Text:       msg.Text,
		Timestamp:  msg.Timestamp,
		Encrypted:  paging.Encrypted,
		Kc:         kc,
		CrackTime:  crackTime,
	}

	metDecoded.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.MessagesDecoded++
	if s.cfg.Filter != nil && !s.cfg.Filter.Match(capt) {
		s.stats.FilteredOut++
		return
	}
	s.captures = append(s.captures, capt)
}

// Reset returns the rig to its just-built state — in-flight session
// buffers, captures, counters and both Kc caches are dropped; tuned
// receivers and the cracker backend are kept. Campaign sweeps reuse
// per-worker rigs across scenarios through it instead of rebuilding
// them, resetting between scenarios so no cracked key leaks from one
// radio environment into the next.
func (s *Sniffer) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions = make(map[uint32]*session)
	s.captures = nil
	s.stats = Stats{}
	s.kcCache = make(map[uint32]uint64)
	s.subKc = make(map[subKcKey]uint64)
}

// SetCrackObserver installs (or, with nil, removes) an extra histogram
// that receives every batched-crack duration alongside the registry's
// sniffer_crack_batch_seconds series. The campaign engine points it at
// the checking-out run's local crack histogram and clears it on rig
// release, which is what keeps per-run crack timings correct when
// scenarios overlap on one process.
func (s *Sniffer) SetCrackObserver(h *obs.Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crackObs = h
}

// Captures returns a copy of recorded (filter-matching) messages.
func (s *Sniffer) Captures() []Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Capture(nil), s.captures...)
}

// Stats returns a snapshot of run counters.
func (s *Sniffer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// WaitForCode polls until a capture whose text matches filter appears,
// or ctx expires. It is the primitive the attack orchestrator uses:
// "trigger the reset, then wait for the code to fly by".
func (s *Sniffer) WaitForCode(ctx context.Context, f Filter) (Capture, error) {
	seen := 0
	for {
		s.mu.Lock()
		for ; seen < len(s.captures); seen++ {
			if f == nil || f.Match(s.captures[seen]) {
				c := s.captures[seen]
				s.mu.Unlock()
				return c, nil
			}
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return Capture{}, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
