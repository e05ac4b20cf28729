package campaign

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/actfort/actfort/internal/countermeasure"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/population"
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

// TestChainDepthsMatchesAccountDepths is the oracle for the compiled
// chain-reaction closure. Over random dataset.Synthetic catalogs and
// deep chain catalogs, each rewritten by a random countermeasure
// policy and compiled for a random platform filter, and over random
// enrollments and leak-dossier factor masks, the per-victim depths
// chainDepths computes must equal
// strategy.AccountDepths on the TDG built from the victim's accounts
// alone under the baseline profile plus the leaked information —
// clamped to MaxDepth, with 0 standing for Unreachable.
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
		scr := newScratch(plan)
		for v := 0; v < 30; v++ {
			// A random enrollment density: at 0.95 a chain catalog keeps
			// most of its links, so the layers past MaxDepth are reached.
			q := []float64{0.1, 0.3, 0.6, 0.95}[rng.Intn(4)]
			enrolled := make(population.ServiceSet, (cat.Len()+63)/64)
			for j := 0; j < cat.Len(); j++ {
				if rng.Float64() < q {
					enrolled[j>>6] |= 1 << (uint(j) & 63)
				}
			}
			know := plan.baseline
			ap := ecosys.BaselineAttacker()
			for _, f := range leakInfo {
				if rng.Intn(2) == 0 {
					ap.KnownInfo.Add(f)
					know |= factorMaskOf(ecosys.NewInfoSet(f).Factors())
				}
			}
			var mine []tdg.Node
			for _, n := range nodes {
				if enrolled.Has(svcIndex[n.ID.Service]) {
					mine = append(mine, n)
				}
			}
			g, err := tdg.Build(mine, ap)
			if err != nil {
				t.Fatal(err)
			}
			want := strategy.AccountDepths(g)

			plan.chainDepths(scr, enrolled, know)
			victims++
			if len(scr.active) != len(want) {
				t.Fatalf("trial %d victim %d: chainDepths saw %d accounts, restricted TDG has %d", trial, v, len(scr.active), len(want))
			}
			for _, a := range scr.active {
				id := plan.accounts[a]
				d, ok := want[id]
				if !ok {
					t.Fatalf("trial %d victim %d: account %s not in the restricted TDG", trial, v, id)
				}
				wantDepth := 0
				if d != strategy.Unreachable {
					wantDepth = min(d, MaxDepth)
					if d > MaxDepth {
						clamped++
					}
				}
				if got := int(scr.depth[a]); got != wantDepth {
					t.Fatalf("trial %d victim %d: %s depth %d, AccountDepths %d (clamped %d)", trial, v, id, got, d, wantDepth)
				}
			}
			scr.reset()
		}
	}
	if clamped == 0 {
		t.Fatalf("no account of %d victims sat past MaxDepth: the clamp went untested", victims)
	}
}
