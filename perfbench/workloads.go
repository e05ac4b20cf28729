package main

import (
	"github.com/actfort/actfort/internal/campaign"
)

// campaign1M is the headline: the paper's baseline environment over a
// million subscribers in one process. Nearly every victim is covered,
// sniffed and cracked, so it is dominated by key recovery and the
// burst cipher.
var campaign1M = batchSpec{
	subscribers:  1_000_000,
	scenarios:    []campaign.Scenario{{Name: "baseline"}},
	setups:       3,
	replayShards: 8,
}

// budget is a receiver fleet covering n of 16 serving channels.
func budget(n int) campaign.AttackerBudget {
	return campaign.AttackerBudget{Receivers: n, CellChannels: 16}
}

// sweepMix is a fortification sweep whose scenarios walk every
// subscriber but intercept few: small receiver budgets, A5/3 cells the
// rig abandons, a narrow victim segment. It uses the layers differently
// from campaign1M — plan compiles for four policies, rigs for several
// radio signatures, generation and targeting over cracking.
var sweepMix = batchSpec{
	subscribers: 250_000,
	scenarios: []campaign.Scenario{
		{Name: "fortify-all.b1", Policy: "fortify-all", Budget: budget(1)},
		{Name: "harden-email.b2", Policy: "harden-email", Budget: budget(2)},
		{Name: "unified-masking.b1", Policy: "unified-masking", Budget: budget(1)},
		{Name: "builtin-auth.b2", Policy: "builtin-auth", Budget: budget(2)},
		{Name: "a53-mix.b4", Radio: campaign.RadioEnv{A50Fraction: -1, A53Fraction: 0.3}, Budget: budget(4)},
		{Name: "baseline.b1", Budget: budget(1)},
		{Name: "fintech-leaked.b8", Budget: budget(8),
			Segment: campaign.VictimSegment{Domain: "fintech", LeakTier: campaign.LeakTierLeaked}},
		{Name: "fortify-all.a53.b2", Policy: "fortify-all",
			Radio: campaign.RadioEnv{A53Fraction: 0.3}, Budget: budget(2)},
	},
	setups:       3,
	replayShards: 2,
}
