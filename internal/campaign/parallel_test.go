package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/faultinject"
)

// phaseStructure flattens a summary's PhaseTimings to its
// wall-clock-independent shape — which phases ran and how often. The
// per-run histogram split must keep this identical whether scenarios
// run sequentially or overlap.
func phaseStructure(sum *Summary) string {
	var b strings.Builder
	for _, pt := range sum.PhaseTimings {
		fmt.Fprintf(&b, "%s:%d;", pt.Phase, pt.Count)
	}
	return b.String()
}

// mixedScenarios is a sweep list that alternates radio environments
// (three share the baseline signature, one retunes to an A5/3 mix), so
// it exercises the signature-keyed rig pool and plan-cache sharing.
func mixedScenarios() []Scenario {
	return []Scenario{
		{Name: "baseline"},
		{Name: "a53", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
		{Name: "fortified", Policy: "fortify-all"},
		{Name: "budget", Budget: AttackerBudget{Receivers: 4, CellChannels: 16}},
	}
}

// TestConcurrentRunScenario is the tentpole contract: RunScenario on
// ONE engine must be safe to call from concurrent goroutines (run
// under -race in CI) and every concurrent call must produce the same
// summary — including the PhaseTimings structure — as a sequential run
// of the same scenario on a fresh engine.
func TestConcurrentRunScenario(t *testing.T) {
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 4}
	cfg.Cracker = sharedCracker(t, cfg)
	scenarios := mixedScenarios()

	want := make([]string, len(scenarios))
	for i, sc := range scenarios {
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := eng.RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		ps := phaseStructure(sum)
		zeroClock(sum)
		want[i] = ps + "\n" + sum.Render(pop.Services(), 10)
	}

	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	for i, sc := range scenarios {
		wg.Add(1)
		go func(i int, sc Scenario) {
			defer wg.Done()
			sum, err := eng.RunScenario(context.Background(), sc)
			if err != nil {
				errs[i] = err
				return
			}
			ps := phaseStructure(sum)
			zeroClock(sum)
			got[i] = ps + "\n" + sum.Render(pop.Services(), 10)
		}(i, sc)
	}
	wg.Wait()
	for i, sc := range scenarios {
		if errs[i] != nil {
			t.Fatalf("concurrent scenario %s: %v", sc.Name, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("scenario %s: concurrent summary differs from sequential:\n--- sequential ---\n%s\n--- concurrent ---\n%s",
				sc.Name, want[i], got[i])
		}
	}
}

// TestSweepParallelMatchesSequential pins RunSweep's parallel
// invariant: with SweepParallel > 1 the SweepSummary must be
// byte-identical (modulo wall-clock fields) to the sequential sweep —
// input-order results, same summaries, same PhaseTimings structure.
func TestSweepParallelMatchesSequential(t *testing.T) {
	pop := testPop(t, 2048, 128)
	base := Config{Population: pop, KeyBits: 10, Workers: 4}
	base.Cracker = sharedCracker(t, base)
	scenarios := mixedScenarios()

	runSweep := func(parallel int) (*SweepSummary, []string) {
		cfg := base
		cfg.SweepParallel = parallel
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := eng.RunSweep(context.Background(), scenarios)
		if err != nil {
			t.Fatal(err)
		}
		shapes := make([]string, len(sw.Results))
		for i, r := range sw.Results {
			shapes[i] = phaseStructure(r.Summary)
		}
		normalizeClock(sw)
		return sw, shapes
	}

	seq, seqShapes := runSweep(1)
	par, parShapes := runSweep(4)
	for i := range scenarios {
		if par.Results[i].Scenario.Name != scenarios[i].Name {
			t.Fatalf("parallel sweep result %d is %q, want input order %q",
				i, par.Results[i].Scenario.Name, scenarios[i].Name)
		}
		if seqShapes[i] != parShapes[i] {
			t.Errorf("scenario %s: PhaseTimings structure differs: sequential %q parallel %q",
				scenarios[i].Name, seqShapes[i], parShapes[i])
		}
	}
	seqRender := seq.Render(pop.Services(), 10)
	parRender := par.Render(pop.Services(), 10)
	if seqRender != parRender {
		t.Errorf("parallel sweep differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seqRender, parRender)
	}
}

// TestSweepMixedRadioEnvRigPool pins the signature-keyed rig pool: a
// sweep alternating radio environments must reuse each environment's
// rigs instead of dropping the pool at every switch, so constructions
// stay bounded by workers × distinct signatures however the scenarios
// interleave.
func TestSweepMixedRadioEnvRigPool(t *testing.T) {
	const workers = 4
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: workers, SweepParallel: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct signatures, each appearing twice, interleaved — the
	// access pattern the old single-signature pool thrashed on.
	sw, err := eng.RunSweep(context.Background(), []Scenario{
		{Name: "base-1"},
		{Name: "a53-1", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
		{Name: "base-2", Policy: "harden-email"},
		{Name: "a53-2", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}, Policy: "harden-email"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With SweepParallel = 2 two scenarios share the worker budget, so
	// each signature's pool never exceeds the worker count.
	if built := eng.RigsBuilt(); built > 2*workers {
		t.Errorf("rigs built = %d, want <= %d (2 radio signatures x %d workers)", built, 2*workers, workers)
	}
	if sw.RigsBuilt != eng.RigsBuilt() {
		t.Errorf("first sweep RigsBuilt = %d, want the full delta %d", sw.RigsBuilt, eng.RigsBuilt())
	}
	// The satellite bugfix: a second sweep on the warm engine must
	// report ITS delta (zero — every rig is pooled), not the engine's
	// lifetime total.
	sw2, err := eng.RunSweep(context.Background(), []Scenario{
		{Name: "base-1"},
		{Name: "a53-1", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw2.RigsBuilt != 0 {
		t.Errorf("second sweep on warm engine reports RigsBuilt = %d, want 0 (delta, not lifetime)", sw2.RigsBuilt)
	}
}

// TestSweepParallelCheckpointResume kills a parallel checkpointed
// sweep with an injected crash mid-journal, then resumes it over the
// same directory tree: the resumed sweep must reproduce the clean
// sweep's results byte for byte (modulo wall-clock fields).
func TestSweepParallelCheckpointResume(t *testing.T) {
	pop := testPop(t, 2048, 128) // 16 shards per scenario
	base := Config{Population: pop, KeyBits: 10, Workers: 2, SweepParallel: 2}
	base.Cracker = sharedCracker(t, base)
	scenarios := []Scenario{
		{Name: "baseline"},
		{Name: "fortified", Policy: "fortify-all"},
		{Name: "a53", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
	}

	clean, err := func() (*SweepSummary, error) {
		eng, err := New(base)
		if err != nil {
			return nil, err
		}
		return eng.RunSweep(context.Background(), scenarios)
	}()
	if err != nil {
		t.Fatal(err)
	}
	normalizeClock(clean)
	want := clean.Render(pop.Services(), 10)

	dir := t.TempDir()
	crashed := base
	crashed.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 4}
	// The 20th journal append across the overlapping scenarios crashes
	// the "process": roughly mid-sweep, with both in-flight scenarios
	// partially journaled.
	crashed.Fault, err = faultinject.New(faultinject.Config{
		Crash: map[faultinject.Point]int{faultinject.PointJournalAppend: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSweep(context.Background(), scenarios); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("crashing sweep returned %v, want ErrCrash", err)
	}

	resume := base
	resume.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 4}
	eng, err = New(resume)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := eng.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	normalizeClock(sw)
	if got := sw.Render(pop.Services(), 10); got != want {
		t.Errorf("resumed parallel sweep differs from clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestScenarioProgress checks the scenario-aware progress hook: under
// a parallel sweep every scenario's callback carries its own name and
// reaches completion, while the legacy Progress callback keeps firing
// for compatibility.
func TestScenarioProgress(t *testing.T) {
	pop := testPop(t, 1024, 128)
	var (
		mu      sync.Mutex
		final   = map[string]int{}
		legacy  int
		totalOK = true
	)
	cfg := Config{
		Population: pop, KeyBits: 10, Workers: 2, SweepParallel: 3,
		Progress: func(done, total int) {
			mu.Lock()
			legacy++
			mu.Unlock()
		},
		ScenarioProgress: func(scenario string, done, total int) {
			mu.Lock()
			final[scenario] = done
			if total != pop.Size() {
				totalOK = false
			}
			mu.Unlock()
		},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		{Name: "baseline"},
		{Name: "fortified", Policy: "fortify-all"},
		{Name: "a53", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
	}
	sw, err := eng.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !totalOK {
		t.Errorf("ScenarioProgress saw a total != population size %d", pop.Size())
	}
	if legacy == 0 {
		t.Error("legacy Progress callback never fired")
	}
	for _, sc := range scenarios {
		if got := final[sc.Name]; got != pop.Size() {
			t.Errorf("scenario %s: last progress done = %d, want %d", sc.Name, got, pop.Size())
		}
	}
	for i, r := range sw.Results {
		if r.Summary == nil {
			t.Fatalf("result %d (%s) has no summary", i, r.Scenario.Name)
		}
		if r.Duration <= 0 {
			t.Errorf("scenario %s: Duration = %v, want > 0", r.Scenario.Name, r.Duration)
		}
	}
	if sw.Duration < time.Duration(0) {
		t.Errorf("sweep Duration = %v", sw.Duration)
	}
}

// TestRigPoolBoundedAcrossRadioEnvs is the regression test for the
// rig-pool leak: the pool used to keep up to Workers rigs for every
// distinct radio environment it had seen, so each new float tuple a
// campaignd client sent pinned more rigs. Sixteen distinct
// environments, four in flight at a time on one engine, must build no
// more rigs than there are workers — and every scenario's Summary must
// still equal a fresh engine's.
func TestRigPoolBoundedAcrossRadioEnvs(t *testing.T) {
	const workers = 2
	pop := testPop(t, 2048, 256)
	cfg := Config{Population: pop, KeyBits: 10, Workers: workers, SweepParallel: 4}
	cfg.Cracker = sharedCracker(t, cfg)
	scenarios := make([]Scenario, 16)
	for i := range scenarios {
		scenarios[i] = Scenario{
			Name: fmt.Sprintf("env-%d", i),
			Radio: RadioEnv{
				A50Fraction: 0.05 * float64(i%4+1),
				A53Fraction: 0.1 * float64(i/4),
				ReauthSkip:  0.2 + 0.05*float64(i),
				OTPSessions: 1 + i%3,
			},
		}
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := eng.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if built := eng.RigsBuilt(); built > workers {
		t.Errorf("rigs built = %d over 16 radio environments, want <= %d (Workers)", built, workers)
	}
	for i, res := range sw.Results {
		if res.Summary == nil {
			t.Fatalf("%s: %s", res.Scenario.Name, res.Error)
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RunScenario(context.Background(), scenarios[i])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := summaryDigest(t, res.Summary), summaryDigest(t, want); got != want {
			t.Errorf("%s: pooled-engine summary digest %s, fresh engine %s", res.Scenario.Name, got, want)
		}
	}
}
