package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/actfort/actfort/internal/campaign"
)

// stripSummary returns a copy of s without its run-dependent fields:
// the wall-clock ones (Duration, ActiveDuration, VictimsPerSec,
// ResumeVictimsPerSec, PhaseTimings). Every counter stays, so two
// stripped summaries of one (seed, scenario) must be identical.
func stripSummary(s campaign.Summary) campaign.Summary {
	s.Duration = 0
	s.ActiveDuration = 0
	s.VictimsPerSec = 0
	s.ResumeVictimsPerSec = 0
	s.PhaseTimings = nil
	return s
}

// stripSweep returns a copy of sw without its run-dependent fields: the
// wall clocks of the sweep and of each result, each result summary's
// wall-clock fields, and RigsBuilt — the rig-pool delta, which depends
// on which radio environments earlier queries already warmed, not on
// the sweep asked for.
func stripSweep(sw campaign.SweepSummary) campaign.SweepSummary {
	sw.Duration = 0
	sw.RigsBuilt = 0
	res := make([]campaign.ScenarioResult, len(sw.Results))
	for i, r := range sw.Results {
		r.Duration = 0
		if r.Summary != nil {
			s := stripSummary(*r.Summary)
			r.Summary = &s
		}
		res[i] = r
	}
	sw.Results = res
	return sw
}

// digestOf hashes v's JSON encoding: 16 hex bytes of SHA-256.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest encode: %v", err)) // plain data always encodes
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16])
}

// summaryDigest is the digest of s with run-dependent fields stripped.
func summaryDigest(s *campaign.Summary) string { return digestOf(stripSummary(*s)) }

// sweepDigest is the digest of sw with run-dependent fields stripped.
func sweepDigest(sw *campaign.SweepSummary) string { return digestOf(stripSweep(*sw)) }
