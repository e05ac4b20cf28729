package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/gsmcodec"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/sniffer"
	"github.com/actfort/actfort/internal/socialdb"
	"github.com/actfort/actfort/internal/telecom"
)

// The engine's fixed radio constants, restated here so the replay can
// rebuild its session batches from the exported draw helpers alone.
// Any drift from the engine shows up as a self-check mismatch.
var (
	keySpace   = a51.KeySpace{Base: 0xC118000000000000, Bits: 12}
	otpDeliver = gsmcodec.Deliver{
		Originator: "ActFort",
		Timestamp:  time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC),
		Text:       "Code 845512",
	}
)

const (
	baseARFCN = 512
	randTag   = 0x52414E44 // the second half of a RAND challenge
)

// buildTable builds the TMTO table the engine builds for its default
// "table" backend.
func buildTable() (*a51.Table, error) {
	return a51.BuildTable(keySpace, a51.TableConfig{Frames: telecom.PagingFrames(), ChainLen: 2})
}

// replayCounts are the per-range outcomes the self-check compares with
// an engine run over the same shards.
type replayCounts struct {
	Targeted, Covered, Sessions, A50, A53, Intercepted, DossierHits int64
}

// layerTimes accumulates the work and busy time of each layer call the
// replay makes.
type layerTimes struct {
	subs     int64
	gen      time.Duration // Population.Shard + Shard.Release
	memBytes int64         // Shard.MemBytes

	leakRecs int64
	leakRec  time.Duration // Population.AppendLeakRecords
	dbAdd    time.Duration // socialdb.AddAll

	sessions int64
	encode   time.Duration // telecom.EncodeSMSBurstsInto

	bursts      int64
	feed, crack time.Duration // sniffer.FeedBatch; crack is inside feed

	lookups int64
	lookup  time.Duration // socialdb.LookupBytes
}

func (t *layerTimes) plus(o layerTimes) {
	t.subs += o.subs
	t.gen += o.gen
	t.memBytes += o.memBytes
	t.leakRecs += o.leakRecs
	t.leakRec += o.leakRec
	t.dbAdd += o.dbAdd
	t.sessions += o.sessions
	t.encode += o.encode
	t.bursts += o.bursts
	t.feed += o.feed
	t.crack += o.crack
	t.lookups += o.lookups
	t.lookup += o.lookup
}

// replayRange rebuilds shards [lo, hi) of sc the way the engine's
// attackShard does — targeting, channel coverage, cipher mode,
// re-authentication epochs, session keys and the paging schedule, all
// from the exported draw helpers — and drives each layer's public call
// directly, timing it. cr is the shared cracker the rig recovers keys
// with.
func replayRange(pop *population.Population, sc campaign.Scenario, lo, hi int, cr a51.Cracker) (replayCounts, layerTimes, error) {
	var rc replayCounts
	var lt layerTimes
	norm, err := sc.Normalized()
	if err != nil {
		return rc, lt, err
	}
	raw, err := otpDeliver.Marshal()
	if err != nil {
		return rc, lt, fmt.Errorf("marshal OTP TPDU: %w", err)
	}
	perSession := uint32(telecom.SessionBurstCount(len(raw)))
	mix := telecom.CellMix{A50: norm.Radio.A50Fraction, A53: norm.Radio.A53Fraction}
	receivers := uint64(norm.Budget.Receivers)
	channels := uint64(norm.Budget.CellChannels)
	sessions := norm.Radio.OTPSessions
	domainMask := segmentMask(pop, norm.Segment.Domain)
	seed := uint64(pop.Seed())

	db := socialdb.New()
	net := telecom.NewNetwork(telecom.Config{KeySpace: keySpace, Seed: pop.Seed()})
	rig := sniffer.New(net, sniffer.Config{Cracker: cr})
	crackObs := obs.NewLocalHistogram(obs.LatencyBuckets)
	rig.SetCrackObserver(crackObs)
	buf := telecom.AcquireBurstBuffer()
	defer buf.Release()

	var (
		durable  slab.Slab[byte] // leak-record strings: the DB keeps them
		strs     slab.Slab[byte] // per-shard IMSI strings
		recs     []socialdb.Record
		tmp      []byte
		batch    []telecom.SMSSession
		covered  []bool
		phones   []byte
		phoneEnd []int
	)
	for i := lo; i < hi; i++ {
		t0 := time.Now()
		sh := pop.Shard(i)
		lt.gen += time.Since(t0)
		lt.subs += int64(len(sh.Subscribers))
		lt.memBytes += int64(sh.MemBytes())

		t0 = time.Now()
		recs, tmp = pop.AppendLeakRecords(recs[:0], sh, &durable, tmp)
		lt.leakRec += time.Since(t0)
		t0 = time.Now()
		db.AddAll(recs)
		lt.dbAdd += time.Since(t0)
		lt.leakRecs += int64(len(recs))

		strs.Reset()
		rig.Reset()
		batch = batch[:0]
		covered = append(covered[:0], make([]bool, len(sh.Subscribers))...)
		frame := uint32(0)
		for li := range sh.Subscribers {
			sub := &sh.Subscribers[li]
			if !targets(sub, domainMask, norm.Segment.LeakTier) {
				continue
			}
			rc.Targeted++
			idx := uint64(sub.Index)
			channel := population.Mix(seed, population.TagCoverage, idx) % channels
			if channel >= receivers {
				continue
			}
			covered[li] = true
			rc.Covered++
			tmp = population.AppendIMSI(tmp[:0], sub.Index)
			imsi := slab.StringOf(&strs, tmp)
			mode := mix.Mode(population.Unit(population.Mix(seed, population.TagCipher, idx)))
			epoch := uint64(0)
			var rnd [16]byte
			var kc uint64
			for s := 0; s < sessions; s++ {
				fresh := s == 0
				if s > 0 && population.Unit(population.Mix(seed, population.TagReauth, idx, uint64(s))) >= norm.Radio.ReauthSkip {
					epoch++
					fresh = true
				}
				if fresh {
					rnd = rand16(population.Mix(seed, population.TagRAND, idx, epoch))
					kc = telecom.SessionKey(pop.Seed(), imsi, rnd, keySpace)
				}
				start := telecom.NextPagingStart(frame)
				batch = append(batch, telecom.SMSSession{
					ARFCN:      baseARFCN + int(channel),
					CellID:     "campaign-cell",
					SessionID:  uint32(li*sessions + s),
					StartFrame: start,
					Cipher:     mode,
					Kc:         kc,
					IMSI:       imsi,
					RAND:       rnd,
					Deliver:    otpDeliver,
				})
				frame = start + perSession
				rc.Sessions++
				switch mode {
				case telecom.CipherA50:
					rc.A50++
				case telecom.CipherA53:
					rc.A53++
				}
			}
		}
		lt.sessions += int64(len(batch))

		if len(batch) > 0 {
			t0 = time.Now()
			flat, err := telecom.EncodeSMSBurstsInto(batch, buf)
			lt.encode += time.Since(t0)
			if err != nil {
				return rc, lt, fmt.Errorf("shard %d: encode: %w", i, err)
			}
			crack0 := crackObs.Sum()
			t0 = time.Now()
			rig.FeedBatch(flat)
			lt.feed += time.Since(t0)
			lt.crack += time.Duration((crackObs.Sum() - crack0) * float64(time.Second))
			lt.bursts += int64(len(flat))
		}

		intercepted := make([]bool, len(sh.Subscribers))
		for _, c := range rig.Captures() {
			intercepted[int(c.SessionID)/sessions] = true
		}
		phones, phoneEnd = phones[:0], phoneEnd[:0]
		for li := range sh.Subscribers {
			if covered[li] && intercepted[li] {
				rc.Intercepted++
				phones = sh.Subscribers[li].Ref.AppendPhone(phones)
				phoneEnd = append(phoneEnd, len(phones))
			}
		}
		t0 = time.Now()
		from := 0
		for _, end := range phoneEnd {
			if _, err := db.LookupBytes(phones[from:end]); err == nil {
				rc.DossierHits++
			}
			from = end
		}
		lt.lookup += time.Since(t0)
		lt.lookups += int64(len(phoneEnd))

		t0 = time.Now()
		sh.Release()
		lt.gen += time.Since(t0)
	}
	return rc, lt, nil
}

// selfCheck runs the engine over the same shard range and compares its
// counters with the replay's: a replay that drifted from the engine
// would time the wrong work, so any mismatch fails the traced run.
func selfCheck(ctx context.Context, pop *population.Population, sc campaign.Scenario, lo, hi int, cr a51.Cracker, rc replayCounts) error {
	eng, err := campaign.New(campaign.Config{Population: pop, Cracker: cr, ShardLo: lo, ShardHi: hi})
	if err != nil {
		return err
	}
	s, err := eng.RunScenario(ctx, sc)
	if err != nil {
		return err
	}
	got := replayCounts{s.Targeted, s.Covered, s.Sessions, s.A50Sessions, s.A53Sessions, s.Intercepted, s.DossierHits}
	if got != rc {
		return fmt.Errorf("replay of scenario %s shards [%d,%d) drifted from the engine: replay %+v, engine %+v",
			sc.Name, lo, hi, rc, got)
	}
	return nil
}

// segmentMask compiles a victim segment's domain to a service bitset
// over the population's catalog (nil = every domain).
func segmentMask(pop *population.Population, domain string) population.ServiceSet {
	if domain == "" {
		return nil
	}
	cat := pop.Catalog()
	mask := make(population.ServiceSet, (cat.Len()+63)/64)
	for i, svc := range cat.Services() {
		if svc.Domain.String() == strings.ToLower(domain) {
			mask[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return mask
}

// targets reports whether the segment (domain mask and leak tier)
// includes sub.
func targets(sub *population.Subscriber, domainMask population.ServiceSet, tier string) bool {
	if domainMask != nil {
		hit := false
		for w := range domainMask {
			if w < len(sub.Enrolled) && sub.Enrolled[w]&domainMask[w] != 0 {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	switch tier {
	case campaign.LeakTierLeaked:
		return sub.Leaked
	case campaign.LeakTierClean:
		return !sub.Leaked
	case campaign.LeakTierBreach:
		return sub.Class == population.LeakBreach
	case campaign.LeakTierWiFi:
		return sub.Class == population.LeakWiFi
	}
	return true
}

// rand16 expands one draw into a RAND challenge.
func rand16(h uint64) [16]byte {
	var out [16]byte
	binary.BigEndian.PutUint64(out[:8], h)
	binary.BigEndian.PutUint64(out[8:], population.Mix(h, randTag))
	return out
}
