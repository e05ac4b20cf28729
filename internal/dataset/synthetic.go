package dataset

import (
	"fmt"
	"math/rand"

	"github.com/actfort/actfort/internal/ecosys"
)

// Synthetic generates a catalog of n services whose template and
// exposure mix follows the calibrated proportions, for scaling
// experiments (E15), plus the three syn-mail-* providers their email
// paths point at: the catalog holds n+3 services. Unlike Default,
// counts are proportional rather than exact, and the output depends
// on the seed.
func Synthetic(n int, seed int64) (*ecosys.Catalog, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: synthetic size %d <= 0", n)
	}
	rng := rand.New(rand.NewSource(seed))

	// Template mix mirroring the web quota proportions.
	type weighted struct {
		tmpl   templateKind
		weight int
	}
	mix := []weighted{
		{tDirectSigninSMS, 55}, {tDirectResetSMS, 75}, {tDirectBoth, 9},
		{tMidCID, 6}, {tMidName, 4}, {tMidEMC, 5}, {tMidLNK, 3},
		{tMidBN, 12}, {tCouple, 8}, {tSecureBIO, 5}, {tSecureU2F, 5},
	}
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	pick := func() templateKind {
		r := rng.Intn(total)
		for _, m := range mix {
			if r < m.weight {
				return m.tmpl
			}
			r -= m.weight
		}
		return tDirectResetSMS
	}

	// Exposure probabilities from the web quotas.
	exposeProb := map[ecosys.InfoField]float64{}
	for f, q := range webExposureQuota {
		exposeProb[f] = float64(q) / float64(NumWeb)
	}

	// A few fixed email providers anchor EMC and SSO references.
	providers := []string{"syn-mail-0", "syn-mail-1", "syn-mail-2"}
	specs := make([]*ecosys.ServiceSpec, 0, n+len(providers))
	for i, p := range providers {
		specs = append(specs, &ecosys.ServiceSpec{
			Name:   p,
			Domain: ecosys.DomainEmail,
			Presences: []ecosys.Presence{{
				Platform:      ecosys.PlatformWeb,
				SignupMethods: tDirectResetSMS.signupMethods(),
				Paths:         tDirectResetSMS.paths(),
				Exposes: []ecosys.Exposure{
					{Field: ecosys.InfoEmailAddress},
					{Field: ecosys.InfoAcquaintance},
				},
			}},
		})
		_ = i
	}

	for i := 0; i < n; i++ {
		tmpl := pick()
		pr := ecosys.Presence{
			Platform:      ecosys.PlatformWeb,
			SignupMethods: tmpl.signupMethods(),
			Paths:         append([]ecosys.AuthPath(nil), tmpl.paths()...),
			EmailProvider: providers[i%len(providers)],
		}
		if tmpl == tMidLNK {
			pr.BoundTo = []string{providers[i%len(providers)]}
		}
		tier := templateTier(tmpl)
		for _, f := range ecosys.AllInfoFields() { // fixed order: keeps the rng stream deterministic
			prob, tracked := exposeProb[f]
			if !tracked {
				continue
			}
			// Keep the depth-3 construction: bankcards never land on
			// fringe accounts.
			if f == ecosys.InfoBankcard && tier == tierDirect {
				continue
			}
			if rng.Float64() < prob {
				pr.Exposes = append(pr.Exposes, ecosys.Exposure{Field: f, Mask: maskFor(f, rng.Intn(8))})
			}
		}
		specs = append(specs, &ecosys.ServiceSpec{
			Name:      fmt.Sprintf("syn-%05d", i),
			Domain:    fillerDomains[i%len(fillerDomains)],
			Presences: []ecosys.Presence{pr},
		})
	}
	return ecosys.NewCatalog(specs)
}
