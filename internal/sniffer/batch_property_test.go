package sniffer

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
	"github.com/actfort/actfort/internal/telecom"
)

// propSpace is the key space of the property-test networks: small
// enough that the bitsliced backend cracks a session in microseconds.
var propSpace = a51.KeySpace{Base: 0xC118000000000000, Bits: 10}

// recordTrace sends msgs SMS sessions round-robin to subs subscribers
// spread over an A5/0 cell (10%), an A5/3 cell (10%) and a two-channel
// A5/1 cell (80%), and returns every burst in air order.
func recordTrace(t *testing.T, seed int64, subs, msgs, reauthEvery int) []telecom.RadioBurst {
	t.Helper()
	n := telecom.NewNetwork(telecom.Config{KeySpace: propSpace, Seed: seed, ReauthEvery: reauthEvery})
	var cells [3]*telecom.Cell
	for i, c := range []telecom.Cell{
		{ID: "cell-a50", ARFCNs: []int{600}, Cipher: telecom.CipherA50},
		{ID: "cell-a51", ARFCNs: []int{512, 513}, Cipher: telecom.CipherA51},
		{ID: "cell-a53", ARFCNs: []int{700}, Cipher: telecom.CipherA53},
	} {
		cell, err := n.AddCell(c)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = cell
	}
	var trace []telecom.RadioBurst
	for _, arfcn := range []int{512, 513, 600, 700} {
		stop := n.Subscribe(arfcn, func(b telecom.RadioBurst) { trace = append(trace, b) })
		defer stop()
	}
	msisdns := make([]string, subs)
	for i := range msisdns {
		msisdns[i] = fmt.Sprintf("+86138%08d", i)
		sub, err := n.Register(fmt.Sprintf("4600000%08d", i), msisdns[i])
		if err != nil {
			t.Fatal(err)
		}
		term, err := n.NewTerminal(sub, telecom.RATGSM)
		if err != nil {
			t.Fatal(err)
		}
		cell := cells[1]
		switch i % 10 {
		case 0:
			cell = cells[0]
		case 1:
			cell = cells[2]
		}
		if err := term.Attach(cell); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for m := 0; m < msgs; m++ {
		text := fmt.Sprintf("G-%06d is your verification code.", rng.Intn(1000000))
		if _, err := n.SendSMS("Google", msisdns[m%subs], text); err != nil {
			t.Fatal(err)
		}
	}
	return trace
}

// cloneBurst deep-copies b so mutated traces never share payload bytes.
func cloneBurst(b telecom.RadioBurst) telecom.RadioBurst {
	b.Payload = bytes.Clone(b.Payload)
	return b
}

// mutateTrace applies the property test's mutations to a recorded
// trace:
//   - adjacent bursts of different sessions swap (interleaving);
//   - bursts repeat, right away or — when late is set — at a random
//     later position, after their session may have completed;
//   - paging and payload bursts drop;
//   - a copy of a burst with Seq >= Total is inserted, which counts
//     toward completion like any other sequence number;
//   - whole sessions are retransmitted right after they complete,
//     exercising the session-key cache.
//
// late repeats can complete a fresh session under an old ID much later
// in the trace; its key-cache lookup then depends on which arbitrary
// entry eviction removed, so traces beyond kcCacheMax sessions keep
// late unset.
func mutateTrace(rng *rand.Rand, in []telecom.RadioBurst, late bool) []telecom.RadioBurst {
	tr := make([]telecom.RadioBurst, len(in))
	for i, b := range in {
		tr[i] = cloneBurst(b)
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i+1 < len(tr); i++ {
			if tr[i].SessionID != tr[i+1].SessionID && rng.Intn(8) == 0 {
				tr[i], tr[i+1] = tr[i+1], tr[i]
			}
		}
	}
	out := make([]telecom.RadioBurst, 0, len(tr)*5/4)
	var pendingLate []telecom.RadioBurst
	for i, b := range tr {
		if r := rng.Intn(100); r < 2 && b.Seq == 0 || r < 3 && b.Seq > 0 {
			continue // lost on the air
		}
		out = append(out, b)
		switch rng.Intn(60) {
		case 0:
			out = append(out, cloneBurst(b)) // immediate repeat
		case 1:
			extra := cloneBurst(b)
			extra.Seq = b.Total + rng.Intn(3)
			out = append(out, extra)
		case 2:
			if late {
				pendingLate = append(pendingLate, cloneBurst(b))
			}
		case 3:
			// Retransmit the whole session after its last burst.
			if i+1 == len(tr) || tr[i+1].SessionID != b.SessionID {
				start := i
				for start > 0 && tr[start-1].SessionID == b.SessionID {
					start--
				}
				for _, rb := range tr[start : i+1] {
					out = append(out, cloneBurst(rb))
				}
			}
		}
		if len(pendingLate) > 0 && rng.Intn(20) == 0 {
			k := rng.Intn(len(pendingLate))
			out = append(out, pendingLate[k])
			pendingLate = append(pendingLate[:k], pendingLate[k+1:]...)
		}
	}
	return out
}

// splitFeed hands trace to s in 2–4 FeedBatch calls. Each call gets
// its own copy of its chunk, and the copy — descriptors and payload
// bytes — is overwritten with junk as soon as the call returns, so a
// session left incomplete across calls must not alias caller memory.
func splitFeed(rng *rand.Rand, s *Sniffer, trace []telecom.RadioBurst) {
	parts := 2 + rng.Intn(3)
	cuts := []int{0, len(trace)}
	for i := 1; i < parts; i++ {
		cuts = append(cuts, rng.Intn(len(trace)+1))
	}
	sort.Ints(cuts)
	for i := 1; i < len(cuts); i++ {
		chunk := make([]telecom.RadioBurst, 0, cuts[i]-cuts[i-1])
		for _, b := range trace[cuts[i-1]:cuts[i]] {
			chunk = append(chunk, cloneBurst(b))
		}
		s.FeedBatch(chunk)
		for j := range chunk {
			for k := range chunk[j].Payload {
				chunk[j].Payload[k] = 0xA5
			}
			chunk[j] = telecom.RadioBurst{SessionID: 0xDEAD, Seq: 1, Total: 2, IMSI: "junk", Payload: chunk[j].Payload}
		}
	}
}

// TestFeedBatchMatchesFeedProperty is the randomized FeedBatch ≡ Feed
// property: seeded traces from a mixed A5/0, A5/1, A5/3 network,
// mutated (interleaved, repeated, lossy, out-of-range sequence numbers,
// retransmitted sessions) and split across several FeedBatch calls
// whose buffers are clobbered after each call, must yield exactly the
// statistics and captures (CrackTime aside) of burst-by-burst Feed —
// under the bitsliced backend (per-session recovery) and the table
// backend (batched prefetch). The large case runs more sessions than
// the key caches hold, forcing eviction.
func TestFeedBatchMatchesFeedProperty(t *testing.T) {
	table, err := a51.BuildTable(propSpace, a51.TableConfig{Frames: telecom.PagingFrames(), ChainLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name    string
		cracker a51.Cracker
	}{
		{"bitsliced", a51.Bitsliced{Workers: 1}},
		{"table", table},
	}
	cases := []struct {
		name                    string
		seed                    int64
		subs, msgs, reauthEvery int
		late                    bool
	}{
		{"reauth-reuse", 1, 40, 400, 3, true},
		{"fresh-auth", 2, 25, 300, 0, true},
		{"reauth-every-2", 3, 60, 500, 2, true},
		// More A5/1 cracks than kcCacheMax: every cache evicts. Fresh
		// authentication per session and no late repeats keep every
		// lookup independent of which entry eviction picked.
		{"evicting", 4, 500, 6400, 0, false},
	}
	for _, tc := range cases {
		base := recordTrace(t, tc.seed, tc.subs, tc.msgs, tc.reauthEvery)
		rng := rand.New(rand.NewSource(tc.seed * 7919))
		trace := mutateTrace(rng, base, tc.late)
		for _, be := range backends {
			t.Run(tc.name+"/"+be.name, func(t *testing.T) {
				feed := New(telecom.NewNetwork(telecom.Config{KeySpace: propSpace}), Config{Cracker: be.cracker})
				for _, b := range trace {
					feed.Feed(b)
				}
				batch := New(telecom.NewNetwork(telecom.Config{KeySpace: propSpace}), Config{Cracker: be.cracker})
				splitFeed(rand.New(rand.NewSource(tc.seed)), batch, trace)

				fs, bs := feed.Stats(), batch.Stats()
				if fs != bs {
					t.Errorf("stats differ:\nfeed  %+v\nbatch %+v", fs, bs)
				}
				if !tc.late && fs.CracksSucceeded <= kcCacheMax {
					t.Errorf("evicting case cracked only %d sessions, want > %d", fs.CracksSucceeded, kcCacheMax)
				}
				fc, bc := feed.Captures(), batch.Captures()
				if len(fc) != len(bc) {
					t.Fatalf("capture counts differ: feed %d batch %d", len(fc), len(bc))
				}
				for i := range fc {
					a, b := fc[i], bc[i]
					a.CrackTime, b.CrackTime = 0, 0
					if a != b {
						t.Fatalf("capture %d differs:\nfeed  %+v\nbatch %+v", i, a, b)
					}
				}
			})
		}
	}
}

// TestSessionMatchesMapModel pins the session buffer — shared by Feed
// and FeedBatch, so the FeedBatch ≡ Feed property cannot see it —
// against the map[int]RadioBurst model it replaced: a repeated Seq
// replaces the earlier burst without counting, every other Seq
// (negative, beyond Total, beyond the slot window) counts once, the
// session completes when the count reaches Total, and every Seq reads
// back its latest burst.
func TestSessionMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		total := rng.Intn(8) - 1
		if trial%50 == 0 {
			total = maxSlotSeq + rng.Intn(4) // slot window exceeded
		}
		sess := &session{total: total, slots: make([]*telecom.RadioBurst, slotCount(total))}
		model := map[int]*telecom.RadioBurst{}
		for step := 0; step < 12; step++ {
			seq := rng.Intn(12) - 2
			if rng.Intn(10) == 0 {
				seq = maxSlotSeq - 1 + rng.Intn(3)
			}
			b := &telecom.RadioBurst{Seq: seq, Frame: uint32(step)}
			model[seq] = b
			done := sess.put(b)
			if want := len(model) == total; done != want {
				t.Fatalf("trial %d step %d: total %d, %d distinct seqs: complete = %v, want %v",
					trial, step, total, len(model), done, want)
			}
			for q := -3; q < maxSlotSeq+3; q++ {
				if got := sess.burst(q); got != model[q] {
					t.Fatalf("trial %d step %d: burst(%d) = %v, want %v", trial, step, q, got, model[q])
				}
			}
			if done {
				break
			}
		}
	}
}

// replayedCracker answers every RecoverBatch call with the first
// answer the wrapped table gave, so a benchmark of the sniffer layer
// does not time key recovery (BenchmarkRecoverBatchCampaignShape in
// internal/a51 does). It is only valid for a fixed trace fed to a
// freshly Reset rig, which asks the same questions every time.
type replayedCracker struct {
	*a51.Table
	keys []uint64
	errs []error
}

func (r *replayedCracker) RecoverBatch(ctx context.Context, samples []a51.Sample, space a51.KeySpace) ([]uint64, []error) {
	if r.keys == nil {
		r.keys, r.errs = r.Table.RecoverBatch(ctx, samples, space)
	}
	if len(samples) != len(r.keys) {
		panic("replayedCracker: the trace asked a different question")
	}
	return r.keys, r.errs
}

// BenchmarkFeedBatchShard is the sniffer layer row: one fixed
// campaign-shaped trace of 4096 SMS sessions (1366 subscribers, three
// sessions each, follow-ups reusing the auth context 60% of the time,
// 20% on A5/0 cells) fed to a Reset rig in one FeedBatch call, with key
// recovery answered from a replay of the first call. It reports
// ns/burst, the figure the per-layer sniffer.feed_ns_per_burst metric
// tracks (feed time without the nested crack).
func BenchmarkFeedBatchShard(b *testing.B) {
	space := a51.KeySpace{Base: 0xC118000000000000, Bits: 12}
	table, err := a51.BuildTable(space, a51.TableConfig{Frames: telecom.PagingFrames(), ChainLen: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4096))
	deliver := gsmcodec.Deliver{Originator: "ActFort", Text: "Code 845512",
		Timestamp: time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC)}
	var sessions []telecom.SMSSession
	frame := uint32(0)
	for sub := 0; len(sessions) < 4096; sub++ {
		imsi := fmt.Sprintf("4600000%08d", sub)
		mode := telecom.CipherA51
		if rng.Intn(5) == 0 {
			mode = telecom.CipherA50
		}
		var rnd [16]byte
		var kc uint64
		for s := 0; s < 3 && len(sessions) < 4096; s++ {
			if s == 0 || rng.Float64() >= 0.6 {
				rng.Read(rnd[:])
				kc = space.Key(rng.Uint64())
			}
			start := telecom.NextPagingStart(frame)
			sessions = append(sessions, telecom.SMSSession{
				ARFCN: 512, CellID: "bench-cell", SessionID: uint32(len(sessions)),
				StartFrame: start, Cipher: mode, Kc: kc, IMSI: imsi, RAND: rnd, Deliver: deliver,
			})
			raw, _ := deliver.Marshal()
			frame = start + uint32(telecom.SessionBurstCount(len(raw)))
		}
	}
	buf := telecom.AcquireBurstBuffer()
	defer buf.Release()
	trace, err := telecom.EncodeSMSBurstsInto(sessions, buf)
	if err != nil {
		b.Fatal(err)
	}
	rig := New(telecom.NewNetwork(telecom.Config{KeySpace: space}), Config{Cracker: &replayedCracker{Table: table}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.Reset()
		rig.FeedBatch(trace)
		if got := rig.Stats().MessagesDecoded; got != len(sessions) {
			b.Fatalf("decoded %d of %d sessions", got, len(sessions))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/burst")
}
