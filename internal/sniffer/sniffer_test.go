package sniffer

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/telecom"
)

// rig builds a network with one A5/1 cell on three ARFCNs and an
// attached GSM victim.
func rig(t *testing.T, cfg Config) (*telecom.Network, *telecom.Subscriber, *Sniffer) {
	t.Helper()
	n := telecom.NewNetwork(telecom.Config{
		KeySpace: a51.KeySpace{Base: 0xC118000000000000, Bits: 10},
		Seed:     11,
	})
	cell, err := n.AddCell(telecom.Cell{ID: "cell-1", ARFCNs: []int{512, 513, 514}, Cipher: telecom.CipherA51})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Register("460000000000001", "+8613800000001")
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.NewTerminal(sub, telecom.RATGSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	s := New(n, cfg)
	t.Cleanup(s.Stop)
	return n, sub, s
}

func TestSniffEncryptedSMS(t *testing.T) {
	n, sub, s := rig(t, Config{})
	if err := s.Tune(512, 513, 514); err != nil {
		t.Fatal(err)
	}
	want := "G-845512 is your Google verification code."
	if _, err := n.SendSMS("Google", sub.MSISDN, want); err != nil {
		t.Fatal(err)
	}
	caps := s.Captures()
	if len(caps) != 1 {
		t.Fatalf("captures = %d want 1", len(caps))
	}
	c := caps[0]
	if c.Text != want || c.Originator != "Google" || !c.Encrypted {
		t.Errorf("capture = %+v", c)
	}
	if c.Kc == 0 {
		t.Error("no session key recovered")
	}
	if !n.KeySpace().Contains(c.Kc) {
		t.Error("recovered Kc outside network key space")
	}
	stats := s.Stats()
	if stats.CracksAttempted != 1 || stats.CracksSucceeded != 1 {
		t.Errorf("crack stats = %+v", stats)
	}
	line := c.WiresharkLine()
	if !strings.Contains(line, "Google") || !strings.Contains(line, "A5/1") {
		t.Errorf("WiresharkLine = %q", line)
	}
}

func TestPartialTuningMissesOtherChannels(t *testing.T) {
	n, sub, s := rig(t, Config{})
	if err := s.Tune(512); err != nil { // only 1 of 3 channels covered
		t.Fatal(err)
	}
	const msgs = 30
	for i := 0; i < msgs; i++ {
		if _, err := n.SendSMS("Svc", sub.MSISDN, "code 111111"); err != nil {
			t.Fatal(err)
		}
	}
	got := len(s.Captures())
	if got == 0 || got == msgs {
		t.Fatalf("1/3 coverage captured %d of %d; want strictly partial", got, msgs)
	}
	// Sessions hash round-robin over 3 ARFCNs: expect about a third.
	if got < msgs/6 || got > msgs*2/3 {
		t.Errorf("capture rate %d/%d implausible for 1/3 coverage", got, msgs)
	}
}

func TestReceiverCapacity(t *testing.T) {
	_, _, s := rig(t, Config{MaxReceivers: 2})
	if err := s.Tune(512, 513); err != nil {
		t.Fatal(err)
	}
	if err := s.Tune(514); !errors.Is(err, ErrTooManyReceivers) {
		t.Fatalf("over-capacity Tune err = %v", err)
	}
	// Re-tuning existing channels consumes no receivers.
	if err := s.Tune(512, 513); err != nil {
		t.Fatal(err)
	}
	if got := s.Tuned(); len(got) != 2 || got[0] != 512 || got[1] != 513 {
		t.Errorf("Tuned = %v", got)
	}
	s.Stop()
	if got := s.Tuned(); len(got) != 0 {
		t.Errorf("Tuned after Stop = %v", got)
	}
}

// TestFeedBatchMatchesFeed pins the batched-decrypt contract: handing
// a recorded trace to FeedBatch must produce the same captures and
// statistics as feeding each burst through Feed in order — including
// lossy sessions, A5/0 plaintext, A5/3 abandons and Kc-reuse cache
// hits.
func TestFeedBatchMatchesFeed(t *testing.T) {
	trace := func(t *testing.T) []telecom.RadioBurst {
		t.Helper()
		n, sub, s := rig(t, Config{})
		if err := s.Tune(512, 513, 514); err != nil {
			t.Fatal(err)
		}
		var all []telecom.RadioBurst
		done := n.Subscribe(512, func(b telecom.RadioBurst) { all = append(all, b) })
		defer done()
		done2 := n.Subscribe(513, func(b telecom.RadioBurst) { all = append(all, b) })
		defer done2()
		done3 := n.Subscribe(514, func(b telecom.RadioBurst) { all = append(all, b) })
		defer done3()
		for i := 0; i < 12; i++ {
			if _, err := n.SendSMS("Google", sub.MSISDN, "G-845512 is your code"); err != nil {
				t.Fatal(err)
			}
		}
		// Drop one payload burst so a lossy session rides along.
		lossy := append([]telecom.RadioBurst(nil), all...)
		return append(lossy[:4], lossy[5:]...)
	}

	bursts := trace(t)
	_, _, scalar := rig(t, Config{})
	for _, b := range bursts {
		scalar.Feed(b)
	}
	_, _, batched := rig(t, Config{})
	batched.FeedBatch(bursts)

	if a, b := scalar.Stats(), batched.Stats(); a != b {
		t.Errorf("stats differ:\nscalar %+v\nbatch  %+v", a, b)
	}
	sc, bc := scalar.Captures(), batched.Captures()
	if len(sc) != len(bc) {
		t.Fatalf("capture counts differ: scalar %d batch %d", len(sc), len(bc))
	}
	for i := range sc {
		a, b := sc[i], bc[i]
		a.CrackTime, b.CrackTime = 0, 0 // the only wall-clock field
		if a != b {
			t.Errorf("capture %d differs:\nscalar %+v\nbatch  %+v", i, a, b)
		}
	}
}

// TestFeedBatchMatchesFeedTableBackend pins the batched-crack contract
// of the tentpole: with a TMTO table (an a51.BatchCracker) behind the
// rig, FeedBatch prefetches every fresh key recovery of the trace in
// one bitsliced RecoverBatch call — deduplicating session-ID repeats
// and (IMSI, RAND) auth-context reuse within the batch — and must
// still produce the same captures and statistics as burst-by-burst
// Feed.
func TestFeedBatchMatchesFeedTableBackend(t *testing.T) {
	space := a51.KeySpace{Base: 0xC118000000000000, Bits: 10}
	table, err := a51.BuildTable(space, a51.TableConfig{Frames: telecom.PagingFrames(), ChainLen: 2})
	if err != nil {
		t.Fatal(err)
	}

	trace := func(t *testing.T, reauthEvery int) []telecom.RadioBurst {
		t.Helper()
		n := telecom.NewNetwork(telecom.Config{
			KeySpace:    space,
			Seed:        11,
			ReauthEvery: reauthEvery,
		})
		cell, err := n.AddCell(telecom.Cell{ID: "cell-1", ARFCNs: []int{512}, Cipher: telecom.CipherA51})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := n.Register("460000000000001", "+8613800000001")
		if err != nil {
			t.Fatal(err)
		}
		term, err := n.NewTerminal(sub, telecom.RATGSM)
		if err != nil {
			t.Fatal(err)
		}
		if err := term.Attach(cell); err != nil {
			t.Fatal(err)
		}
		var all []telecom.RadioBurst
		done := n.Subscribe(512, func(b telecom.RadioBurst) { all = append(all, b) })
		defer done()
		for i := 0; i < 9; i++ {
			if _, err := n.SendSMS("Google", sub.MSISDN, "G-845512 is your code"); err != nil {
				t.Fatal(err)
			}
		}
		// Drop one payload burst so a lossy session rides along.
		return append(all[:4], all[5:]...)
	}

	// reauthEvery=3: consecutive sessions reuse (RAND, Kc), so the
	// batch's pendSub dedupe and the KcReuse counters are exercised.
	for _, reauthEvery := range []int{0, 3} {
		bursts := trace(t, reauthEvery)

		feed := New(telecom.NewNetwork(telecom.Config{KeySpace: space, Seed: 11}), Config{Cracker: table})
		for _, b := range bursts {
			feed.Feed(b)
		}
		batch := New(telecom.NewNetwork(telecom.Config{KeySpace: space, Seed: 11}), Config{Cracker: table})
		batch.FeedBatch(bursts)

		if a, b := feed.Stats(), batch.Stats(); a != b {
			t.Errorf("reauth=%d stats differ:\nfeed  %+v\nbatch %+v", reauthEvery, a, b)
		}
		fc, bc := feed.Captures(), batch.Captures()
		if len(fc) != len(bc) {
			t.Fatalf("reauth=%d capture counts differ: %d vs %d", reauthEvery, len(fc), len(bc))
		}
		for i := range fc {
			a, b := fc[i], bc[i]
			a.CrackTime, b.CrackTime = 0, 0 // the only wall-clock field
			if a != b {
				t.Errorf("reauth=%d capture %d differs:\nfeed  %+v\nbatch %+v", reauthEvery, i, a, b)
			}
		}
	}
}

// TestTuneDuplicateARFCNsOneCall is the regression test for the
// capacity double-count: Tune(512, 512) needs one receiver, so it must
// succeed on a one-handset rig instead of spuriously reporting
// ErrTooManyReceivers.
func TestTuneDuplicateARFCNsOneCall(t *testing.T) {
	_, _, s := rig(t, Config{MaxReceivers: 1})
	if err := s.Tune(512, 512); err != nil {
		t.Fatalf("Tune(512, 512) on capacity 1 = %v", err)
	}
	if got := s.Tuned(); len(got) != 1 || got[0] != 512 {
		t.Fatalf("Tuned = %v, want [512]", got)
	}
	// Mixing an already-tuned channel with duplicates of a fresh one
	// must count exactly one new receiver.
	_, _, s2 := rig(t, Config{MaxReceivers: 2})
	if err := s2.Tune(512); err != nil {
		t.Fatal(err)
	}
	if err := s2.Tune(512, 513, 513); err != nil {
		t.Fatalf("Tune(512, 513, 513) on capacity 2 = %v", err)
	}
	if got := s2.Tuned(); len(got) != 2 {
		t.Fatalf("Tuned = %v, want two channels", got)
	}
	// And genuine over-capacity still fails loudly.
	if err := s2.Tune(514, 514); !errors.Is(err, ErrTooManyReceivers) {
		t.Fatalf("over-capacity Tune err = %v", err)
	}
}

func TestFilterRestrictsCaptures(t *testing.T) {
	n, sub, s := rig(t, Config{Filter: MustFilter(`sms.text contains "code"`)})
	if err := s.Tune(512, 513, 514); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SendSMS("Google", sub.MSISDN, "your code is 123456"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SendSMS("Mom", sub.MSISDN, "dinner at eight"); err != nil {
		t.Fatal(err)
	}
	caps := s.Captures()
	if len(caps) != 1 || !strings.Contains(caps[0].Text, "code") {
		t.Fatalf("filtered captures = %+v", caps)
	}
	stats := s.Stats()
	if stats.MessagesDecoded != 2 || stats.FilteredOut != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestPlaintextCellNeedsNoCrack(t *testing.T) {
	n := telecom.NewNetwork(telecom.Config{KeySpace: a51.KeySpace{Bits: 8}, Seed: 2})
	cell, _ := n.AddCell(telecom.Cell{ID: "open", ARFCNs: []int{100}, Cipher: telecom.CipherA50})
	sub, _ := n.Register("i", "+8613800000009")
	term, _ := n.NewTerminal(sub, telecom.RATGSM)
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	s := New(n, Config{})
	defer s.Stop()
	if err := s.Tune(100); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SendSMS("Bank", sub.MSISDN, "pin 0000"); err != nil {
		t.Fatal(err)
	}
	caps := s.Captures()
	if len(caps) != 1 || caps[0].Encrypted || caps[0].Kc != 0 {
		t.Fatalf("captures = %+v", caps)
	}
	if s.Stats().CracksAttempted != 0 {
		t.Error("crack attempted on plaintext traffic")
	}
}

// Failure injection: losing any single burst of a session kills the
// capture, but other sessions are unaffected.
func TestBurstLossDropsSession(t *testing.T) {
	n, sub, _ := rig(t, Config{})
	// Record the raw bursts without tuning the sniffer.
	var bursts []telecom.RadioBurst
	for _, a := range []int{512, 513, 514} {
		cancel := n.Subscribe(a, func(b telecom.RadioBurst) { bursts = append(bursts, b) })
		defer cancel()
	}
	if _, err := n.SendSMS("Google", sub.MSISDN, "G-111222 is your code"); err != nil {
		t.Fatal(err)
	}
	for drop := 0; drop < len(bursts); drop++ {
		fresh := New(n, Config{})
		for i, b := range bursts {
			if i == drop {
				continue
			}
			fresh.Feed(b)
		}
		if got := len(fresh.Captures()); got != 0 {
			t.Errorf("dropping burst %d still yielded %d captures", drop, got)
		}
	}
	// Feeding all bursts works.
	full := New(n, Config{})
	for _, b := range bursts {
		full.Feed(b)
	}
	if got := len(full.Captures()); got != 1 {
		t.Errorf("full replay captures = %d want 1", got)
	}
}

func TestWaitForCode(t *testing.T) {
	n, sub, s := rig(t, Config{})
	if err := s.Tune(512, 513, 514); err != nil {
		t.Fatal(err)
	}
	done := make(chan Capture, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c, err := s.WaitForCode(ctx, MustFilter(`sms.src == "PayPal"`))
		if err != nil {
			t.Error(err)
			return
		}
		done <- c
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := n.SendSMS("PayPal", sub.MSISDN, "PayPal: 998877"); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-done:
		if c.Originator != "PayPal" {
			t.Errorf("capture = %+v", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitForCode never returned")
	}
}

func TestWaitForCodeTimeout(t *testing.T) {
	_, _, s := rig(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.WaitForCode(ctx, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkSniffAndCrack10Bit(b *testing.B) {
	n := telecom.NewNetwork(telecom.Config{
		KeySpace: a51.KeySpace{Base: 0xC118000000000000, Bits: 10},
		Seed:     11,
	})
	cell, _ := n.AddCell(telecom.Cell{ID: "c", ARFCNs: []int{512}, Cipher: telecom.CipherA51})
	sub, _ := n.Register("i", "+8613800000001")
	term, _ := n.NewTerminal(sub, telecom.RATGSM)
	if err := term.Attach(cell); err != nil {
		b.Fatal(err)
	}
	s := New(n, Config{})
	defer s.Stop()
	if err := s.Tune(512); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.SendSMS("Google", sub.MSISDN, "G-845512 is your code"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(s.Captures()) != b.N {
		b.Fatalf("captured %d of %d", len(s.Captures()), b.N)
	}
}

// TestSniffWithTableBackend runs the full capture path with the
// Kraken-style TMTO backend: the network schedules paging bursts on
// CCCH frame classes and the table precomputed over PagingFrames()
// resolves every session by lookup.
func TestSniffWithTableBackend(t *testing.T) {
	space := a51.KeySpace{Base: 0xC118000000000000, Bits: 10}
	n := telecom.NewNetwork(telecom.Config{
		KeySpace: space,
		Seed:     11,
	})
	cell, err := n.AddCell(telecom.Cell{ID: "cell-1", ARFCNs: []int{512}, Cipher: telecom.CipherA51})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Register("460000000000009", "+8613800000009")
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.NewTerminal(sub, telecom.RATGSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	table, err := a51.BuildTable(space, a51.TableConfig{Frames: telecom.PagingFrames()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(n, Config{Cracker: table})
	t.Cleanup(s.Stop)
	if err := s.Tune(512); err != nil {
		t.Fatal(err)
	}
	const msgs = 5
	for i := 0; i < msgs; i++ {
		if _, err := n.SendSMS("Google", sub.MSISDN, "G-111111 is your code"); err != nil {
			t.Fatal(err)
		}
	}
	caps := s.Captures()
	if len(caps) != msgs {
		t.Fatalf("captures = %d want %d", len(caps), msgs)
	}
	for _, c := range caps {
		if c.Kc == 0 || !space.Contains(c.Kc) {
			t.Fatalf("bad recovered Kc %#x", c.Kc)
		}
	}
	if st := s.Stats(); st.CracksSucceeded != msgs {
		t.Fatalf("crack stats = %+v", st)
	}
}

// TestKcCacheSkipsRecrack replays a recorded session through Feed and
// expects the per-session key cache to answer instead of a second
// crack.
func TestKcCacheSkipsRecrack(t *testing.T) {
	n, sub, s := rig(t, Config{})
	// Record the session's bursts off the air alongside the sniffer.
	var recorded []telecom.RadioBurst
	for _, a := range []int{512, 513, 514} {
		cancel := n.Subscribe(a, func(b telecom.RadioBurst) {
			recorded = append(recorded, b)
		})
		defer cancel()
	}
	if err := s.Tune(512, 513, 514); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SendSMS("Google", sub.MSISDN, "G-845512 is your code"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CracksAttempted != 1 || st.CrackCacheHits != 0 {
		t.Fatalf("stats after live capture = %+v", st)
	}
	// Replay the trace: same session ID, already-cracked key.
	for _, b := range recorded {
		s.Feed(b)
	}
	st := s.Stats()
	if st.CracksAttempted != 1 {
		t.Fatalf("replay re-cracked: %+v", st)
	}
	if st.CrackCacheHits != 1 {
		t.Fatalf("replay missed the Kc cache: %+v", st)
	}
	if caps := s.Captures(); len(caps) != 2 || caps[0].Kc != caps[1].Kc {
		t.Fatalf("replayed capture differs: %+v", caps)
	}
}

// TestKcReuseCache models the network-side weakness of skipped
// re-authentication: with telecom.Config.ReauthEvery = 3, each
// subscriber's Kc persists across three SMS sessions, and the
// sniffer's per-subscriber (IMSI, RAND) cache turns one crack into
// three decrypted sessions.
func TestKcReuseCache(t *testing.T) {
	n := telecom.NewNetwork(telecom.Config{
		KeySpace:    a51.KeySpace{Base: 0xC118000000000000, Bits: 10},
		Seed:        11,
		ReauthEvery: 3,
	})
	cell, err := n.AddCell(telecom.Cell{ID: "cell-1", ARFCNs: []int{512}, Cipher: telecom.CipherA51})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Register("460000000000001", "+8613800000001")
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.NewTerminal(sub, telecom.RATGSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	s := New(n, Config{})
	t.Cleanup(s.Stop)
	if err := s.Tune(512); err != nil {
		t.Fatal(err)
	}

	const msgs = 6 // two auth epochs of three sessions each
	for i := 0; i < msgs; i++ {
		if _, err := n.SendSMS("Google", sub.MSISDN, "G-845512 is your code"); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MessagesDecoded != msgs {
		t.Fatalf("decoded %d of %d", st.MessagesDecoded, msgs)
	}
	if st.CracksAttempted != 2 || st.CracksSucceeded != 2 {
		t.Fatalf("want one crack per auth epoch, got %+v", st)
	}
	if st.KcReuseHits != 4 || st.KcReuseMisses != 2 {
		t.Fatalf("reuse counters = hits %d misses %d, want 4/2", st.KcReuseHits, st.KcReuseMisses)
	}
	// Session cache is keyed by session ID, so fresh sessions never
	// touch it.
	if st.CrackCacheHits != 0 {
		t.Fatalf("session cache hit on live traffic: %+v", st)
	}
	caps := s.Captures()
	if len(caps) != msgs {
		t.Fatalf("captures = %d", len(caps))
	}
	if caps[0].Kc != caps[1].Kc || caps[0].Kc != caps[2].Kc {
		t.Fatal("first epoch sessions disagree on Kc")
	}
	if caps[3].Kc == caps[0].Kc {
		t.Fatal("re-authentication did not rotate Kc")
	}
}

// TestKcReuseCacheIneligible confirms bursts without identity context
// (IMSI empty, e.g. pre-refactor traces) never touch the subscriber
// cache.
func TestKcReuseCacheIneligible(t *testing.T) {
	n, sub, s := rig(t, Config{})
	var recorded []telecom.RadioBurst
	cancel := n.Subscribe(512, func(b telecom.RadioBurst) {
		b.IMSI = ""
		b.RAND = [16]byte{}
		recorded = append(recorded, b)
	})
	defer cancel()
	if _, err := n.SendSMS("Google", sub.MSISDN, "G-845512 is your code"); err != nil {
		t.Fatal(err)
	}
	// Feed the anonymized trace under a fresh session ID.
	for _, b := range recorded {
		if b.ARFCN != 512 {
			continue
		}
		b.SessionID += 1000
		// Re-deriving the paging keystream needs the matching session
		// payload; only structural counters matter here.
		s.Feed(b)
	}
	st := s.Stats()
	if st.KcReuseHits != 0 || st.KcReuseMisses != 0 {
		t.Fatalf("anonymized bursts touched the subscriber cache: %+v", st)
	}
}

// TestA53SessionsAbandoned checks the rig recognizes the announced
// A5/3 ciphering mode and abandons the session without burning search
// effort or recording a capture.
func TestA53SessionsAbandoned(t *testing.T) {
	n := telecom.NewNetwork(telecom.Config{
		KeySpace: a51.KeySpace{Base: 0xC118000000000000, Bits: 10},
		Seed:     11,
	})
	cell, err := n.AddCell(telecom.Cell{ID: "c53", ARFCNs: []int{512}, Cipher: telecom.CipherA53})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Register("460000000000021", "+8613800000021")
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.NewTerminal(sub, telecom.RATGSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	s := New(n, Config{})
	t.Cleanup(s.Stop)
	if err := s.Tune(512); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SendSMS("Google", sub.MSISDN, "G-845512 is your code"); err != nil {
		t.Fatal(err)
	}
	if caps := s.Captures(); len(caps) != 0 {
		t.Fatalf("A5/3 session captured: %+v", caps)
	}
	st := s.Stats()
	if st.A53Abandoned != 1 || st.CracksAttempted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReset checks the rig-reuse contract: Reset drops captures,
// counters and both Kc caches while keeping tuned receivers, so a
// reused rig behaves exactly like a fresh one.
func TestReset(t *testing.T) {
	n, sub, s := rig(t, Config{})
	if err := s.Tune(512, 513, 514); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := n.SendSMS("Google", sub.MSISDN, "G-845512 is your code"); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Captures()) == 0 {
		t.Fatal("no captures before Reset")
	}
	s.Reset()
	if len(s.Captures()) != 0 {
		t.Fatal("captures survived Reset")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("stats survived Reset: %+v", st)
	}
	if got := s.Tuned(); len(got) != 3 {
		t.Fatalf("tuned receivers dropped by Reset: %v", got)
	}
	// The rig must work — and re-crack — after Reset.
	if _, err := n.SendSMS("Google", sub.MSISDN, "G-845512 is your code"); err != nil {
		t.Fatal(err)
	}
	caps := s.Captures()
	if len(caps) != 1 || caps[0].Kc == 0 {
		t.Fatalf("post-Reset capture = %+v", caps)
	}
	if st := s.Stats(); st.CracksAttempted == 0 {
		t.Fatalf("post-Reset session did not re-crack: %+v", st)
	}
}
