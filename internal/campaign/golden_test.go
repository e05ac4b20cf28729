package campaign

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/actfort/actfort/internal/report"
)

// goldenFile pins one SHA-256 digest per (backend, scenario) pair: the
// Summary of a fixed-seed multi-shard campaign, rendered by
// report.WriteJSON with every wall-clock field zeroed. The digests were
// computed before the sniffer and replay hot paths were last reworked;
// an optimization that changes any of them changed the campaign's
// results, not just its speed.
const goldenFile = "testdata/golden_summaries.txt"

// goldenScenarios covers the radio, policy, budget and segment axes a
// hot-path change could perturb: the unfortified baseline, the
// fortified catalog, the A5/3 upgrade, a non-saturating receiver budget
// and a domain-restricted victim segment.
var goldenScenarios = []string{"baseline", "fortified", "a53-mix", "budget-4of16", "fintech-leaked"}

// goldenLiterals adds the leak-tier cohorts and radio mixes no builtin
// scenario reaches: the breach and phishing-WiFi tiers (the only
// segments that read a subscriber's leak class), two OTP sessions per
// victim under a mixed A5/0-A5/3 cell population, and an all-A5/1
// environment that re-authenticates every session under a half-covered
// channel plan.
var goldenLiterals = []Scenario{
	{Name: "leak-breach", Segment: VictimSegment{LeakTier: LeakTierBreach}},
	{Name: "wifi-a53-2otp",
		Radio:   RadioEnv{A50Fraction: 0.3, A53Fraction: 0.3, OTPSessions: 2},
		Segment: VictimSegment{LeakTier: LeakTierWiFi}},
	{Name: "a51-reauth-8of16",
		Radio:  RadioEnv{A50Fraction: -1, ReauthSkip: -1},
		Budget: AttackerBudget{Receivers: 8, CellChannels: 16}},
}

// summaryDigest is the hex SHA-256 of sum's JSON rendering with the
// wall-clock fields zeroed.
func summaryDigest(t *testing.T, sum *Summary) string {
	t.Helper()
	zeroClock(sum)
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, sum); err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:])
}

// readGolden parses goldenFile: one "<backend>/<scenario> <digest>"
// line per pair; blank lines and #-comments are skipped.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[name] = strings.TrimSpace(digest)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenSummaries runs ~20k subscribers over ten shards through the
// table and bitsliced backends and compares each scenario's Summary
// digest with the committed one. There is deliberately no update flag:
// a mismatch prints the new digest, and replacing a golden is a
// reviewed edit of the testdata file. Each backend builds one engine
// (one cracker) over the one shared population, and its scenario lines
// run as parallel subtests — concurrent RunScenario calls, which the
// engine's shared shard budget serializes into the same Workers slots.
func TestGoldenSummaries(t *testing.T) {
	want := readGolden(t)
	pop := testPop(t, 20000, 2048)
	scenarios := make([]Scenario, 0, len(goldenScenarios)+len(goldenLiterals))
	for _, name := range goldenScenarios {
		sc, ok := BuiltinScenario(name)
		if !ok {
			t.Fatalf("scenario %q missing from the builtin shelf", name)
		}
		scenarios = append(scenarios, sc)
	}
	scenarios = append(scenarios, goldenLiterals...)
	for _, backend := range []string{"table", "bitsliced"} {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			eng, err := New(Config{Population: pop, KeyBits: 12, Workers: 2, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range scenarios {
				t.Run(sc.Name, func(t *testing.T) {
					t.Parallel()
					sum, err := eng.RunScenario(context.Background(), sc)
					if err != nil {
						t.Fatal(err)
					}
					key := backend + "/" + sc.Name
					got := summaryDigest(t, sum)
					if want[key] != got {
						t.Errorf("%s: summary digest %s, golden %q\n  new line: %s %s", key, got, want[key], key, got)
					}
				})
			}
		})
	}
}
