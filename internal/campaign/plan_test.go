package campaign

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"github.com/actfort/actfort/internal/countermeasure"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/socialdb"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
)

// TestVictimDrawsMatchMix pins the engine's prefixed per-victim draws
// to the reference formula: every coverage, cipher, reauth and RAND
// draw equals population.Mix over (seed, tag, index[, session/epoch]).
func TestVictimDrawsMatchMix(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 1000; i++ {
		seed, idx, s := rng.Uint64(), rng.Uint64(), rng.Uint64()
		if i%2 == 0 {
			idx, s = uint64(rng.Intn(1<<20)), uint64(rng.Intn(8))
		}
		d := newVictimDraws(seed)
		checks := []struct {
			name      string
			got, want uint64
		}{
			{"coverage", uint64(d.coverage.At(idx)), population.Mix(seed, population.TagCoverage, idx)},
			{"cipher", uint64(d.cipher.At(idx)), population.Mix(seed, population.TagCipher, idx)},
			{"reauth", uint64(d.reauth.At(idx).At(s)), population.Mix(seed, population.TagReauth, idx, s)},
			{"rand", uint64(d.rand.At(idx).At(s)), population.Mix(seed, population.TagRAND, idx, s)},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Fatalf("seed %#x idx %d s %d: %s draw %#x, Mix %#x", seed, idx, s, c.name, c.got, c.want)
			}
		}
	}
}

// chainCatalog builds n services where service k > 0 falls only
// through service k-1 (an SSO binding or the mailbox hosting its email
// code, chosen by rng) and service 0 falls to the baseline profile:
// service k sits at depth k+1, past the MaxDepth clamp for k ≥ MaxDepth.
func chainCatalog(n int, rng *rand.Rand) (*ecosys.Catalog, error) {
	specs := make([]*ecosys.ServiceSpec, n)
	for k := range specs {
		pr := ecosys.Presence{Platform: ecosys.PlatformWeb}
		switch {
		case k == 0:
			pr.Paths = []ecosys.AuthPath{{ID: "reset-1", Purpose: ecosys.PurposeReset,
				Factors: []ecosys.FactorKind{ecosys.FactorCellphone, ecosys.FactorSMSCode}}}
		case rng.Intn(2) == 0:
			pr.Paths = []ecosys.AuthPath{{ID: "signin-1", Purpose: ecosys.PurposeSignIn,
				Factors: []ecosys.FactorKind{ecosys.FactorLinkedAccount}}}
			pr.BoundTo = []string{fmt.Sprintf("chain-%02d", k-1)}
		default:
			pr.Paths = []ecosys.AuthPath{{ID: "reset-1", Purpose: ecosys.PurposeReset,
				Factors: []ecosys.FactorKind{ecosys.FactorCellphone, ecosys.FactorEmailCode}}}
			pr.EmailProvider = fmt.Sprintf("chain-%02d", k-1)
		}
		specs[k] = &ecosys.ServiceSpec{Name: fmt.Sprintf("chain-%02d", k), Domain: ecosys.DomainEmail, Presences: []ecosys.Presence{pr}}
	}
	return ecosys.NewCatalog(specs)
}

// laneVictim is one lane of an oracle group: its enrollment, the
// attacker's up-front factor mask and the TDG profile behind it.
type laneVictim struct {
	enrolled population.ServiceSet
	know     uint64
	ap       ecosys.AttackerProfile
}

// TestChainDepthsMatchesAccountDepths is the oracle for the compiled
// lane closure. Over random dataset.Synthetic catalogs and deep chain
// catalogs, each rewritten by a random countermeasure policy and
// compiled for a random platform filter, and over lane groups of 1,
// 63, 64 and random sizes whose lanes draw their own enrollments and
// leak-dossier factor masks, the layer at which each lane first holds
// an account fallen must equal strategy.AccountDepths on the TDG built
// from that victim's accounts alone under the baseline profile plus
// the leaked information — clamped to MaxDepth, with "never falls"
// standing for Unreachable. closeGroup's popcount accounting of the
// same group must equal the per-victim fold of those oracle depths.
func TestChainDepthsMatchesAccountDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	leakInfo := []ecosys.InfoField{ecosys.InfoRealName, ecosys.InfoAddress, ecosys.InfoCitizenID}
	platformSets := [][]ecosys.Platform{ecosys.AllPlatforms(), {ecosys.PlatformWeb}, {ecosys.PlatformMobile}}
	policies := countermeasure.Policies()
	clamped, victims := 0, 0
	for trial := 0; trial < 40; trial++ {
		var cat *ecosys.Catalog
		var err error
		if trial%4 == 3 {
			cat, err = chainCatalog(MaxDepth+2+rng.Intn(6), rng)
		} else {
			cat, err = dataset.Synthetic(10+rng.Intn(150), rng.Int63())
		}
		if err != nil {
			t.Fatal(err)
		}
		pol := policies[rng.Intn(len(policies))]
		if cat, err = pol.Apply(cat); err != nil {
			t.Fatalf("apply %s: %v", pol.Name, err)
		}
		platforms := platformSets[rng.Intn(len(platformSets))]
		plan, err := buildPlan(cat, platforms)
		if err != nil {
			t.Fatal(err)
		}
		nodes := tdg.NodesFromCatalog(cat, platforms...)
		svcIndex := make(map[string]int, cat.Len())
		for i, svc := range cat.Services() {
			svcIndex[svc.Name] = i
		}
		lg := newLanes(plan)
		g := &lg
		// Two groups per trial, so the second runs on a reset group.
		sizes := []int{[]int{1, 63, 64, 1 + rng.Intn(64)}[trial/4%4], 1 + rng.Intn(64)}
		for gi, size := range sizes {
			group := make([]laneVictim, size)
			knows := make(map[uint64]bool)
			for l := range group {
				// A random enrollment density: at 0.95 a chain catalog
				// keeps most of its links, so the layers past MaxDepth
				// are reached.
				q := []float64{0.1, 0.3, 0.6, 0.95}[rng.Intn(4)]
				v := laneVictim{
					enrolled: make(population.ServiceSet, (cat.Len()+63)/64),
					know:     plan.baseline,
					ap:       ecosys.BaselineAttacker(),
				}
				for j := 0; j < cat.Len(); j++ {
					if rng.Float64() < q {
						v.enrolled[j>>6] |= 1 << (uint(j) & 63)
					}
				}
				for _, f := range leakInfo {
					if rng.Intn(2) == 0 {
						v.ap.KnownInfo.Add(f)
						v.know |= factorMaskOf(ecosys.NewInfoSet(f).Factors())
					}
				}
				group[l] = v
				knows[v.know] = true
			}
			if size >= 63 && len(knows) < 2 {
				t.Fatalf("trial %d: all %d lanes drew one know mask", trial, size)
			}

			// The oracle: each lane's accounts and depths on its own TDG.
			want := make([]map[int32]int, size)
			for l, v := range group {
				var mine []tdg.Node
				for _, n := range nodes {
					if v.enrolled.Has(svcIndex[n.ID.Service]) {
						mine = append(mine, n)
					}
				}
				tg, err := tdg.Build(mine, v.ap)
				if err != nil {
					t.Fatal(err)
				}
				depths := strategy.AccountDepths(tg)
				want[l] = make(map[int32]int)
				for a, id := range plan.accounts {
					d, ok := depths[id]
					if !ok {
						continue
					}
					if d == strategy.Unreachable {
						d = 0
					} else if d > MaxDepth {
						d = MaxDepth
						clamped++
					}
					want[l][int32(a)] = d
				}
			}
			victims += size

			// The kernel, layer by layer.
			for _, v := range group {
				plan.addLane(g, v.enrolled, v.know)
			}
			plan.start(g)
			got := make([]map[int32]int, size)
			for l := range got {
				got[l] = make(map[int32]int)
				for _, a := range g.live {
					if g.enrolled[a]>>uint(l)&1 == 1 {
						got[l][a] = 0
					}
				}
			}
			prev := make([]uint64, len(plan.accounts))
			for d := 1; ; d++ {
				fell, anyFell := plan.layer(g)
				var n int64
				var seen uint64
				for _, a := range g.live {
					newly := g.fell[a] &^ prev[a]
					prev[a] = g.fell[a]
					n += int64(bits.OnesCount64(newly))
					seen |= newly
					for ; newly != 0; newly &= newly - 1 {
						got[bits.TrailingZeros64(newly)][a] = min(d, MaxDepth)
					}
				}
				if fell != n || anyFell != seen {
					t.Fatalf("trial %d group %d layer %d: layer reported %d falls in lanes %#x, masks show %d in %#x", trial, gi, d, fell, anyFell, n, seen)
				}
				if fell == 0 {
					break
				}
			}
			for l := range group {
				if len(got[l]) != len(want[l]) {
					t.Fatalf("trial %d group %d lane %d/%d: kernel saw %d accounts, restricted TDG has %d", trial, gi, l, size, len(got[l]), len(want[l]))
				}
				for a, d := range got[l] {
					wd, ok := want[l][a]
					if !ok {
						t.Fatalf("trial %d group %d lane %d: account %s not in the restricted TDG", trial, gi, l, plan.accounts[a])
					}
					if d != wd {
						t.Fatalf("trial %d group %d lane %d/%d: %s depth %d, AccountDepths %d (clamped)", trial, gi, l, size, plan.accounts[a], d, wd)
					}
				}
			}

			// The accounting, from a reset group over the same lanes.
			g.reset()
			for _, v := range group {
				plan.addLane(g, v.enrolled, v.know)
			}
			gotPart, wantPart := newSummary(cat.Len()), newSummary(cat.Len())
			plan.closeGroup(g, gotPart)
			for _, depths := range want {
				foldDepths(plan, depths, wantPart)
			}
			if !reflect.DeepEqual(gotPart, wantPart) {
				t.Fatalf("trial %d group %d (%d lanes): closeGroup accounting\n%+v\nper-victim fold of the oracle depths\n%+v", trial, gi, size, gotPart, wantPart)
			}
			if g.n != 0 || len(g.live) != 0 || len(g.pending) != 0 {
				t.Fatalf("trial %d group %d: closeGroup left %d lanes, %d live accounts", trial, gi, g.n, len(g.live))
			}
		}
	}
	if clamped == 0 {
		t.Fatalf("no account of %d victims sat past MaxDepth: the clamp went untested", victims)
	}
}

// foldDepths folds one victim's account depths (clamped to MaxDepth, 0
// for never falls) into part one account at a time: the per-victim
// accounting closeGroup's popcounts must reproduce.
func foldDepths(plan *attackPlan, depths map[int32]int, part *Summary) {
	taken, maxDepth := int64(0), 0
	var fields uint32
	for a, d := range depths {
		if d == 0 {
			continue
		}
		taken++
		maxDepth = max(maxDepth, d)
		part.AccountsByDepth[d]++
		part.ServiceTakeovers[plan.svcIdx[a]]++
		fields |= plan.exposes[a]
	}
	n := bits.OnesCount32(fields)
	part.HarvestHist[min(n, len(part.HarvestHist)-1)]++
	if taken == 0 {
		return
	}
	part.VictimsCompromised++
	part.AccountsCompromised += taken
	part.VictimsByMaxDepth[maxDepth]++
	for f := 1; f < len(part.FieldTotals); f++ {
		if fields>>uint(f)&1 == 1 {
			part.FieldTotals[f]++
		}
	}
}

// leakFactorMask maps a leak record's fields to credential factors, as
// the engine did when it probed a leak database per victim.
func leakFactorMask(rec socialdb.Record) uint64 {
	var m uint64
	if rec.RealName != "" {
		m |= factorBit(ecosys.FactorRealName)
	}
	if rec.Address != "" {
		m |= factorBit(ecosys.FactorAddress)
	}
	if rec.CitizenID != "" {
		m |= factorBit(ecosys.FactorCitizenID)
	}
	return m
}

// TestDossierFactorsMatchLeakDB holds the dossier path to the leak
// database it replaced. Over random seeds, leak fractions (none, the
// default, everyone) and catalogs, every shard's leak records are
// rebuilt and merged into one socialdb the way the engine once did
// (AppendLeakRecords → AddAll), and every subscriber's phone is looked
// up (LookupBytes → leakFactorMask). The lookup must hit exactly for
// the subscribers whose population.Dossier is not DossierNone, and the
// baseline plus the record's factors must equal the plan's know mask
// for that dossier.
func TestDossierFactorsMatchLeakDB(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 12; trial++ {
		cat, err := dataset.Synthetic(10+rng.Intn(150), rng.Int63())
		if trial%4 == 0 {
			cat, err = dataset.Default()
		}
		if err != nil {
			t.Fatal(err)
		}
		plan, err := buildPlan(cat, ecosys.AllPlatforms())
		if err != nil {
			t.Fatal(err)
		}
		lf := []float64{-1, 0, 1}[trial%3]
		pop, err := population.New(population.Config{Seed: rng.Int63(), Size: 3000, ShardSize: 512, Catalog: cat, LeakFraction: lf})
		if err != nil {
			t.Fatal(err)
		}
		db := socialdb.New()
		var arena slab.Slab[byte]
		var recs []socialdb.Record
		var tmp []byte
		for i := 0; i < pop.NumShards(); i++ {
			sh := pop.Shard(i)
			recs, tmp = pop.AppendLeakRecords(recs[:0], sh, &arena, tmp)
			db.AddAll(recs)
			sh.Release()
		}
		dossiers := make(map[population.Dossier]int)
		for i := 0; i < pop.NumShards(); i++ {
			sh := pop.Shard(i)
			for j := range sh.Subscribers {
				sub := &sh.Subscribers[j]
				d := pop.Dossier(sub)
				dossiers[d]++
				tmp = sub.Ref.AppendPhone(tmp[:0])
				rec, err := db.LookupBytes(tmp)
				if hit := err == nil; hit != (d != population.DossierNone) {
					t.Fatalf("trial %d (leak %g) sub %d: leak DB hit %v, dossier %d", trial, lf, sub.Index, hit, d)
				}
				if got, want := plan.know[d], plan.baseline|leakFactorMask(rec); got != want {
					t.Fatalf("trial %d (leak %g) sub %d: dossier %d know %#x, leak DB record gives %#x", trial, lf, sub.Index, d, got, want)
				}
			}
			sh.Release()
		}
		if lf == 0 && len(dossiers) != int(population.NumDossiers) {
			t.Fatalf("trial %d: default leak fraction drew dossiers %v, want all %d kinds", trial, dossiers, population.NumDossiers)
		}
	}
}

// BenchmarkChainClosure is the closure layer's row: campaign-shaped
// lane groups of 64 consecutive subscribers of a 1M-subscriber
// default-catalog population (the default scenario intercepts every
// victim), each lane knowing what its dossier supplies, run through
// closeGroup. It reports ns per victim and must report 0 allocs/op.
func BenchmarkChainClosure(b *testing.B) {
	pop, err := population.New(population.Config{Seed: 1, Size: 1_000_000})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := buildPlan(pop.Catalog(), ecosys.AllPlatforms())
	if err != nil {
		b.Fatal(err)
	}
	sh := pop.Shard(0)
	defer sh.Release()
	lg := newLanes(plan)
	g := &lg
	part := newSummary(len(pop.Services()))
	subs := sh.Subscribers[:len(sh.Subscribers)/64*64]
	b.ReportAllocs()
	b.ResetTimer()
	victims := 0
	for i := 0; i < b.N; i++ {
		for k := range 64 {
			sub := &subs[(i*64+k)%len(subs)]
			plan.addLane(g, sub.Enrolled, plan.know[pop.Dossier(sub)])
		}
		plan.closeGroup(g, part)
		victims += 64
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(victims), "ns/victim")
}
