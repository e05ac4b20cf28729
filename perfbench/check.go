package main

import (
	"fmt"

	"github.com/actfort/actfort/internal/campaign"
)

// checkSummary verifies the invariants every complete batch Summary
// holds, whatever the scenario: the whole population processed, no
// shard quarantined, the funnel Targeted ≥ Covered ≥ Intercepted ≥
// VictimsCompromised, and both depth histograms adding up to the totals
// they break down.
func checkSummary(s *campaign.Summary, popSize int) error {
	if s.Subscribers != int64(popSize) {
		return fmt.Errorf("scenario %s: Subscribers %d, population %d", s.Scenario, s.Subscribers, popSize)
	}
	if s.CoverageFraction != 1 {
		return fmt.Errorf("scenario %s: CoverageFraction %g, want 1", s.Scenario, s.CoverageFraction)
	}
	if !(s.Targeted >= s.Covered && s.Covered >= s.Intercepted && s.Intercepted >= s.VictimsCompromised) {
		return fmt.Errorf("scenario %s: funnel out of order: targeted %d, covered %d, intercepted %d, compromised %d",
			s.Scenario, s.Targeted, s.Covered, s.Intercepted, s.VictimsCompromised)
	}
	var accounts, victims int64
	for d := range s.AccountsByDepth {
		accounts += s.AccountsByDepth[d]
		victims += s.VictimsByMaxDepth[d]
	}
	if accounts != s.AccountsCompromised {
		return fmt.Errorf("scenario %s: ΣAccountsByDepth %d ≠ AccountsCompromised %d", s.Scenario, accounts, s.AccountsCompromised)
	}
	if victims != s.VictimsCompromised {
		return fmt.Errorf("scenario %s: ΣVictimsByMaxDepth %d ≠ VictimsCompromised %d", s.Scenario, victims, s.VictimsCompromised)
	}
	return nil
}
