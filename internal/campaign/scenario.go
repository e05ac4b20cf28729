package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/telecom"
)

// Scenario is the declarative description of one campaign run: which
// countermeasure policy fortifies the catalog before the attack plan
// compiles, what radio environment the victims live in, how large the
// attacker's receiver fleet is, and which victim cohort is targeted.
// Scenarios are plain data — JSON scenario files load straight into
// them — and a sweep is just a list of them evaluated against one
// shared population and one shared cracker table.
type Scenario struct {
	// Name labels the scenario in reports ("scenario-N" when empty).
	Name string `json:"name"`
	// Policy names the countermeasure.Policy applied to the ecosystem
	// catalog before plan compilation ("" or "none" = the unfortified
	// baseline; see countermeasure.Policies for the registry).
	Policy string `json:"policy,omitempty"`
	// Platform restricts the attacked presences: "web", "mobile" or
	// "both" (the default).
	Platform string `json:"platform,omitempty"`
	// Radio is the victims' radio environment.
	Radio RadioEnv `json:"radio,omitempty"`
	// Budget is the attacker's receiver-fleet budget.
	Budget AttackerBudget `json:"budget,omitempty"`
	// Segment restricts the victim cohort.
	Segment VictimSegment `json:"segment,omitempty"`
}

// RadioEnv describes the cellular conditions a scenario's victims camp
// under.
//
// Probability fields follow one scenario-JSON convention: 0 (or the
// field absent) selects the paper's measured default, a negative value
// means "none", and anything above 1 is rejected by normalize — a JSON
// file saying "reauthSkip": 5 is a bug, not a clamp to certainty.
type RadioEnv struct {
	// A50Fraction is the share of victims on unencrypted (A5/0) cells.
	// 0 = the paper's default 0.2; negative = none (everyone ciphered);
	// must not exceed 1.
	A50Fraction float64 `json:"a50Fraction,omitempty"`
	// A53Fraction is the share of victims on cells upgraded to A5/3,
	// which the rig cannot crack. 0 = none (the measured networks had
	// not upgraded — here the default and "none" coincide); negative =
	// none, accepted for symmetry; must not exceed 1.
	A53Fraction float64 `json:"a53Fraction,omitempty"`
	// ReauthSkip is the probability a follow-up session reuses the
	// previous (RAND, Kc) instead of re-authenticating. 0 = the paper's
	// default 0.6; negative = none (operators always re-authenticate);
	// must not exceed 1.
	ReauthSkip float64 `json:"reauthSkip,omitempty"`
	// OTPSessions is how many OTP transmissions each victim's services
	// send during the observation window (0 = 3).
	OTPSessions int `json:"otpSessions,omitempty"`
}

// cellMix folds the fractions into the telecom draw helper.
func (r RadioEnv) cellMix() telecom.CellMix {
	return telecom.CellMix{A50: r.A50Fraction, A53: r.A53Fraction}
}

// AttackerBudget sizes the interception fleet. The paper's rig was 16
// single-frequency receivers (Motorola C118s): each receiver camps on
// one ARFCN, so the probability a victim's serving channel is covered
// is Receivers/CellChannels — the physical model that replaces the
// earlier flat coverage knob.
type AttackerBudget struct {
	// Receivers is the fleet size (0 = 16, the paper's hardware).
	Receivers int `json:"receivers,omitempty"`
	// CellChannels is how many ARFCNs the victims' serving cells spread
	// across (0 = Receivers: the fleet covers every channel).
	CellChannels int `json:"cellChannels,omitempty"`
}

// Coverage is the resulting per-victim interception probability.
func (b AttackerBudget) Coverage() float64 {
	if b.CellChannels <= 0 {
		return 1
	}
	c := float64(b.Receivers) / float64(b.CellChannels)
	if c > 1 {
		c = 1
	}
	return c
}

// Leak-tier cohort names for VictimSegment.LeakTier.
const (
	// LeakTierLeaked targets subscribers present in any leak database.
	LeakTierLeaked = "leaked"
	// LeakTierClean targets subscribers absent from every leak DB.
	LeakTierClean = "clean"
	// LeakTierBreach targets full breach rows (name/address dumps).
	LeakTierBreach = "breach"
	// LeakTierWiFi targets phishing-WiFi harvests (phone number only).
	LeakTierWiFi = "wifi"
)

// VictimSegment restricts which subscribers a scenario attacks —
// per-domain and per-leak-tier cohorts, so sweeps can ask "how much
// does fortification help fintech users the attacker already has a
// dossier on?".
type VictimSegment struct {
	// Domain keeps only subscribers enrolled in at least one service of
	// this ecosys domain ("" = everyone), e.g. "fintech" or "email".
	Domain string `json:"domain,omitempty"`
	// LeakTier keeps only the named leak cohort ("" = everyone): one of
	// "leaked", "clean", "breach", "wifi".
	LeakTier string `json:"leakTier,omitempty"`
}

// normalize fills a scenario's defaults in place and validates every
// enumerated field, returning the effective scenario. idx names
// anonymous scenarios.
func (sc Scenario) normalize(idx int) (Scenario, error) {
	if sc.Name == "" {
		sc.Name = fmt.Sprintf("scenario-%d", idx)
	}
	switch strings.ToLower(sc.Platform) {
	case "", "both":
		sc.Platform = "both"
	case "web":
		sc.Platform = "web"
	case "mobile":
		sc.Platform = "mobile"
	default:
		return sc, fmt.Errorf("campaign: scenario %s: unknown platform %q (want web, mobile or both)", sc.Name, sc.Platform)
	}
	r := &sc.Radio
	if r.OTPSessions <= 0 {
		r.OTPSessions = 3
	}
	// Every probability field must land in [0, 1] after the zero-value
	// convention resolves (0 = paper default, negative = none). A value
	// above 1 is a misconfiguration, never a clamp: "reauthSkip": 5
	// would silently pin every victim to one Kc forever.
	if r.ReauthSkip > 1 {
		return sc, fmt.Errorf("campaign: scenario %s: reauthSkip %g out of range (probabilities live in [0, 1]; 0 = default 0.6, negative = always re-authenticate)",
			sc.Name, r.ReauthSkip)
	}
	if r.A50Fraction > 1 {
		return sc, fmt.Errorf("campaign: scenario %s: a50Fraction %g out of range (fractions live in [0, 1]; 0 = default 0.2, negative = none)",
			sc.Name, r.A50Fraction)
	}
	if r.A53Fraction > 1 {
		return sc, fmt.Errorf("campaign: scenario %s: a53Fraction %g out of range (fractions live in [0, 1]; 0 = none)",
			sc.Name, r.A53Fraction)
	}
	if r.ReauthSkip == 0 {
		r.ReauthSkip = 0.6
	} else if r.ReauthSkip < 0 {
		r.ReauthSkip = 0
	}
	if r.A50Fraction == 0 {
		r.A50Fraction = 0.2
	} else if r.A50Fraction < 0 {
		r.A50Fraction = 0
	}
	if r.A53Fraction < 0 {
		r.A53Fraction = 0
	}
	if r.A50Fraction+r.A53Fraction > 1 {
		return sc, fmt.Errorf("campaign: scenario %s: A5/0 (%g) + A5/3 (%g) fractions exceed 1",
			sc.Name, r.A50Fraction, r.A53Fraction)
	}
	b := &sc.Budget
	if b.Receivers == 0 {
		b.Receivers = 16
	}
	if b.Receivers < 0 {
		b.Receivers = 0
	}
	if b.CellChannels <= 0 {
		b.CellChannels = b.Receivers
		if b.CellChannels <= 0 {
			b.CellChannels = 1
		}
	}
	if sc.Segment.Domain != "" {
		if _, err := domainByName(sc.Segment.Domain); err != nil {
			return sc, fmt.Errorf("campaign: scenario %s: %w", sc.Name, err)
		}
	}
	switch sc.Segment.LeakTier {
	case "", LeakTierLeaked, LeakTierClean, LeakTierBreach, LeakTierWiFi:
	default:
		return sc, fmt.Errorf("campaign: scenario %s: unknown leak tier %q (want %s, %s, %s or %s)",
			sc.Name, sc.Segment.LeakTier, LeakTierLeaked, LeakTierClean, LeakTierBreach, LeakTierWiFi)
	}
	return sc, nil
}

// Normalized returns the scenario with every default filled and every
// enumerated field validated — exactly the normalization RunScenario
// applies before executing, exported so the query service can surface
// validation failures as structured 400s before a run is admitted.
//
// Normalization is deliberately NOT idempotent: the scenario-JSON
// zero-value convention (0 = paper default, negative = none) means a
// normalized RadioEnv whose ReauthSkip resolved to "none" (0) would
// resolve to the 0.6 default if normalized again. Callers therefore
// validate with Normalized but hand the ORIGINAL scenario to
// RunScenario/RunSweep, which normalize exactly once themselves.
func (sc Scenario) Normalized() (Scenario, error) {
	return sc.normalize(0)
}

// NormalizeSweep validates a sweep's scenario list the way RunSweep
// does — per-scenario normalization plus the unique-name check the
// comparative tables key on — and returns the normalized list. Like
// Normalized, the result is for inspection and error surfacing, not
// for feeding back into RunSweep (normalization is not idempotent; see
// Normalized). An empty list is an error here: the DefaultSweep
// substitution is RunSweep's own convenience, not part of validation.
func NormalizeSweep(scenarios []Scenario) ([]Scenario, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("campaign: sweep holds no scenarios")
	}
	return normalizeSweepList(scenarios)
}

// normalizeSweepList is the shared validation loop behind RunSweep and
// NormalizeSweep: normalize each scenario under its index and reject
// duplicate names.
func normalizeSweepList(scenarios []Scenario) ([]Scenario, error) {
	seen := make(map[string]bool, len(scenarios))
	norm := make([]Scenario, len(scenarios))
	for i, sc := range scenarios {
		n, err := sc.normalize(i)
		if err != nil {
			return nil, err
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("campaign: duplicate scenario name %q in sweep", n.Name)
		}
		seen[n.Name] = true
		norm[i] = n
	}
	return norm, nil
}

// platforms resolves the platform restriction (normalize ran first).
func (sc Scenario) platforms() []ecosys.Platform {
	switch sc.Platform {
	case "web":
		return []ecosys.Platform{ecosys.PlatformWeb}
	case "mobile":
		return []ecosys.Platform{ecosys.PlatformMobile}
	}
	return ecosys.AllPlatforms()
}

// domainByName resolves an ecosys domain from its lowercase name.
func domainByName(name string) (ecosys.Domain, error) {
	for _, d := range ecosys.AllDomains() {
		if d.String() == strings.ToLower(name) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown domain %q", name)
}

// LoadScenarios decodes a declarative scenario file: a JSON array of
// Scenario objects. Unknown fields are rejected so typos in sweep
// definitions fail loudly instead of silently running the default.
func LoadScenarios(r io.Reader) ([]Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var out []Scenario
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("campaign: decode scenario file: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: scenario file holds no scenarios")
	}
	return out, nil
}

// builtinScenarios is the named scenario shelf the CLI exposes.
var builtinScenarios = []Scenario{
	{Name: "baseline"},
	{Name: "fortified", Policy: "fortify-all"},
	{Name: "a53-mix", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
	{Name: "harden-email", Policy: "harden-email"},
	{Name: "budget-4of16", Budget: AttackerBudget{Receivers: 4, CellChannels: 16}},
	{Name: "fintech-leaked", Segment: VictimSegment{Domain: "fintech", LeakTier: LeakTierLeaked}},
}

// BuiltinScenarios returns a copy of the named scenario shelf.
func BuiltinScenarios() []Scenario {
	return append([]Scenario(nil), builtinScenarios...)
}

// BuiltinScenario resolves one shelf entry by name.
func BuiltinScenario(name string) (Scenario, bool) {
	for _, sc := range builtinScenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// DefaultSweep is the paper's core fortification experiment as a
// scenario list: the unfortified baseline, the fully fortified
// catalog, and the A5/3 radio upgrade, all over one shared population.
func DefaultSweep() []Scenario {
	out := make([]Scenario, 0, 3)
	for _, name := range []string{"baseline", "fortified", "a53-mix"} {
		sc, _ := BuiltinScenario(name)
		out = append(out, sc)
	}
	return out
}
