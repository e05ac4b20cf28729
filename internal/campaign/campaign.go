// Package campaign is the population-scale attack engine: it runs the
// paper's chain-reaction attack not against one victim but across a
// synthetic subscriber population of millions (internal/population),
// quantifying how far one sniffed SMS OTP "goes nuclear" through the
// account ecosystem at operator scale — and, through declarative
// Scenarios and the sweep driver, how much fortification shrinks that
// mass.
//
// Architecture (the template every scaling subsystem follows):
//
//   - the population is sharded; a bounded worker pool streams shards,
//     so subscriber state (personas, enrollments, radio sessions) is
//     O(shard) and nothing grows with the population;
//   - every worker synthesizes each victim's OTP radio sessions with
//     the same burst encoder the live Network uses and feeds them to a
//     per-shard passive sniffer rig — batched sniffer sessions;
//   - all rigs share ONE A5/1 cracker backend, so a single precomputed
//     TMTO table is amortized across the entire population AND across
//     every scenario of a sweep; rigs themselves sit in one pool,
//     bounded by the worker budget, and are reused between shards and
//     between scenarios — including concurrent scenarios mixing radio
//     environments;
//   - the chain reaction runs 64 intercepted victims at a time, one
//     per bit of a uint64 lane word, as a layered fixpoint over a
//     precompiled Transformation Dependency Graph plan (integer
//     tables, no per-victim graph builds); each scenario compiles its
//     own plan from its policy-fortified catalog, cached by (policy,
//     platform). What a victim's entry in the attacker's leak
//     databases (§V.A.1) supplies comes from the population's draw
//     streams (population.Dossier), so no leak store is built;
//   - metrics stream to a single aggregator as per-shard partial
//     summaries and render through internal/report.
//
// Fixed-seed invariant: for a fixed seed the campaign Summary is
// byte-identical run to run, whatever the worker count, sweep overlap
// or checkpoint boundaries. Committed golden digests pin it; the
// 64-lane batch radio synthesis and batched TMTO chain replay are held
// against their scalar reference oracles in the telecom, sniffer and
// a51 packages, and the lane closure against strategy.AccountDepths.
package campaign

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/countermeasure"
	"github.com/actfort/actfort/internal/faultinject"
	"github.com/actfort/actfort/internal/gsmcodec"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/sniffer"
	"github.com/actfort/actfort/internal/telecom"
)

// Config parameterizes an Engine: the shared resources every scenario
// of a sweep reuses. Per-run knobs (countermeasure policy, radio
// environment, attacker budget, victim cohort) live in Scenario.
type Config struct {
	// Population is the subscriber base to attack (required).
	Population *population.Population
	// Workers bounds the shard worker pool (0 = GOMAXPROCS).
	Workers int
	// Backend selects the shared A5/1 cracker ("table" when empty; see
	// a51.NewCracker). Cracker overrides it when non-nil.
	Backend string
	Cracker a51.Cracker
	// KeyBits is the A5/1 session-key space (0 = 12, as the case-study
	// scenarios use).
	KeyBits int
	// Scenario is the default scenario Run executes; the zero value is
	// the paper's baseline environment (no policy, measured radio mix,
	// full-coverage 16-receiver fleet, whole population).
	Scenario Scenario
	// ScenarioProgress, when non-nil, receives (scenario, done, total)
	// after every merged shard (and once up front for shards a resumed
	// run skips), so overlapping SweepParallel runs stay distinguishable.
	// Callbacks of concurrent scenarios may arrive concurrently; the
	// callee synchronizes.
	ScenarioProgress func(scenario string, done, total int)
	// SweepParallel bounds how many sweep scenarios RunSweep keeps in
	// flight at once (0 or 1 = sequential, the default). However many
	// scenarios overlap, their shard work shares the one Workers-bounded
	// budget, so parallelism overlaps a scenario's tail (aggregation,
	// stragglers) with the next scenario's start instead of
	// oversubscribing the machine.
	SweepParallel int

	// Checkpoint, when non-nil, makes runs durable: every completed
	// shard is journaled, periodic snapshots fold the journal away, and
	// a rerun over the same directory resumes from the last journaled
	// shard instead of starting over. Nil keeps runs in-memory only.
	Checkpoint *Checkpoint
	// ShardLo and ShardHi bound the contiguous shard range
	// [ShardLo, ShardHi) this engine owns — the multi-process split:
	// each process takes a disjoint range and its own checkpoint
	// directory, and MergePartials combines the results. Both zero =
	// the whole population.
	ShardLo, ShardHi int
	// MaxShardAttempts bounds how many times a failing shard is
	// attempted before quarantine (0 = 3). Only injected or I/O shard
	// failures retry; shard computation itself is deterministic.
	MaxShardAttempts int
	// RetryBackoff is the base delay before a shard retry, doubling per
	// attempt and capped at RetryBackoffMax (0 = no delay).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// Fault injects deterministic crashes and shard failures into the
	// run — the recovery-path test harness (nil = no faults).
	Fault *faultinject.Injector

	// Trace, when non-nil, receives the shard-lifecycle event stream:
	// shard_start/done/retry/quarantine per attempt, journal and
	// snapshot boundaries, run start/done. Events never affect results;
	// a nil Trace costs nothing (every TraceWriter method is nil-safe).
	Trace *obs.TraceWriter
}

// Engine is the resident core: the shared resources every scenario —
// sequential or concurrent — draws on. Everything here is either
// immutable after New (population, cracker table, key space) or
// guarded for concurrent use (plan cache, rig pool, shard budget), so
// RunScenario is safe to call from multiple goroutines at once; all
// per-run state lives in the run type. Build with New, execute one
// scenario with Run/RunScenario or a comparative list with RunSweep.
type Engine struct {
	cfg     Config
	space   a51.KeySpace
	cracker a51.Cracker
	// draws are the per-victim radio draw streams, prefixed on the
	// population seed once per engine.
	draws victimDraws

	// plans caches compiled attack plans by (policy, platform): a sweep
	// comparing radio environments under one policy compiles once.
	planMu sync.Mutex
	plans  map[planKey]*attackPlan

	// The rig pool: free sniffer rigs reusable by any worker of any
	// run. Rigs are never tuned, Reset clears all their per-run state
	// and every rig shares the engine's cracker, so one list serves
	// every radio environment; a rig is checked out per shard, so
	// shardSem bounds the pool by Workers. rigsBuilt counts
	// constructions so tests can pin reuse.
	rigMu     sync.Mutex
	rigFree   []*sniffer.Sniffer
	rigsBuilt atomic.Int64

	// shardSem is the engine-wide shard-worker budget: every worker of
	// every in-flight run acquires a slot per shard, so N overlapping
	// scenarios still run at most cfg.Workers shards at a time.
	shardSem chan struct{}
}

// planKey identifies one compiled plan.
type planKey struct {
	policy   string
	platform string
}

// New validates the shared resources and builds the cracker backend
// (including the one-off TMTO table precomputation for "table").
func New(cfg Config) (*Engine, error) {
	if cfg.Population == nil {
		return nil, fmt.Errorf("campaign: nil population")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.KeyBits <= 0 {
		cfg.KeyBits = 12
	}
	if cfg.MaxShardAttempts <= 0 {
		cfg.MaxShardAttempts = 3
	}
	num := cfg.Population.NumShards()
	if cfg.ShardLo == 0 && cfg.ShardHi == 0 {
		cfg.ShardHi = num
	}
	if cfg.ShardLo < 0 || cfg.ShardHi > num || cfg.ShardLo >= cfg.ShardHi {
		return nil, fmt.Errorf("campaign: shard range [%d, %d) invalid for %d shards",
			cfg.ShardLo, cfg.ShardHi, num)
	}
	e := &Engine{
		cfg:      cfg,
		space:    a51.KeySpace{Base: 0xC118000000000000, Bits: cfg.KeyBits},
		draws:    newVictimDraws(uint64(cfg.Population.Seed())),
		plans:    make(map[planKey]*attackPlan),
		shardSem: make(chan struct{}, cfg.Workers),
	}
	var err error
	e.cracker = cfg.Cracker
	if e.cracker == nil {
		backend := cfg.Backend
		if backend == "" {
			backend = "table"
		}
		if backend == "table" {
			// The campaign's table is tuned for lookup throughput:
			// short chains cost a little more memory (still megabytes
			// at simulation key sizes) and cut the per-session replay
			// work several-fold — the right trade when one table is
			// amortized over millions of cracks. It covers exactly the
			// CCCH paging frame classes the 51×26 COUNT schedule can
			// put a known-plaintext burst on.
			e.cracker, err = a51.BuildTable(e.space, a51.TableConfig{
				Frames:   telecom.PagingFrames(),
				ChainLen: 2,
			})
		} else {
			e.cracker, err = a51.NewCracker(backend, e.space, 0)
		}
		if err != nil {
			return nil, err
		}
	}
	// Compile the default scenario's plan eagerly so a misconfigured
	// Config fails at New, like it always has.
	if _, err := e.planForScenario(cfg.Scenario); err != nil {
		return nil, err
	}
	return e, nil
}

// Cracker exposes the shared backend (benchmarks and the CLI report
// its name).
func (e *Engine) Cracker() a51.Cracker { return e.cracker }

// RigsBuilt reports how many sniffer rigs the engine has constructed.
// Sweep tests pin rig reuse with it: scenarios sharing a radio
// environment must not grow it beyond the worker count.
func (e *Engine) RigsBuilt() int64 { return e.rigsBuilt.Load() }

// planForScenario normalizes sc and returns its cached or
// freshly compiled plan.
func (e *Engine) planForScenario(sc Scenario) (*attackPlan, error) {
	norm, err := sc.normalize(0)
	if err != nil {
		return nil, err
	}
	return e.plan(norm)
}

// plan returns the compiled plan for a normalized scenario, applying
// its countermeasure policy to the catalog first.
func (e *Engine) plan(sc Scenario) (*attackPlan, error) {
	key := planKey{policy: sc.Policy, platform: sc.Platform}
	if key.policy == "" {
		key.policy = "none"
	}
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if p, ok := e.plans[key]; ok {
		return p, nil
	}
	pol, err := countermeasure.PolicyByName(sc.Policy)
	if err != nil {
		return nil, err
	}
	cat, err := pol.Apply(e.cfg.Population.Catalog())
	if err != nil {
		return nil, fmt.Errorf("campaign: apply policy %s: %w", pol.Name, err)
	}
	p, err := buildPlan(cat, sc.platforms())
	if err != nil {
		return nil, err
	}
	e.plans[key] = p
	return p, nil
}

// rig hands out a pooled sniffer rig, building one when the pool is
// dry. Rigs only ever serve one worker at a time; crackObs, when
// non-nil, receives the rig's batched-crack durations for the duration
// of the checkout.
func (e *Engine) rig(net *telecom.Network, crackObs *obs.Histogram) *sniffer.Sniffer {
	e.rigMu.Lock()
	if n := len(e.rigFree); n > 0 {
		r := e.rigFree[n-1]
		e.rigFree = e.rigFree[:n-1]
		e.rigMu.Unlock()
		metRigsReused.Inc()
		r.SetCrackObserver(crackObs)
		return r
	}
	e.rigMu.Unlock()
	e.rigsBuilt.Add(1)
	metRigsBuilt.Inc()
	r := sniffer.New(net, sniffer.Config{Cracker: e.cracker})
	r.SetCrackObserver(crackObs)
	return r
}

// releaseRig resets a rig, detaches the run-local crack observer, and
// returns it to the pool for the next worker of any run.
func (e *Engine) releaseRig(r *sniffer.Sniffer) {
	r.Reset()
	r.SetCrackObserver(nil)
	e.rigMu.Lock()
	e.rigFree = append(e.rigFree, r)
	e.rigMu.Unlock()
}

// Run executes the engine's default scenario.
func (e *Engine) Run(ctx context.Context) (*Summary, error) {
	return e.RunScenario(ctx, e.cfg.Scenario)
}

// RunScenario executes one scenario: attack every owned shard through
// the worker pool, streaming partial summaries into one aggregate. The
// returned Summary is deterministic for a fixed config apart from
// Duration/VictimsPerSec — including across kill-and-resume boundaries
// when a Checkpoint is configured.
// RunScenario is safe to call concurrently: each call builds its own
// run over the engine's shared core, and overlapping calls share the
// Workers-bounded shard budget.
func (e *Engine) RunScenario(ctx context.Context, sc Scenario) (*Summary, error) {
	dir := ""
	if e.cfg.Checkpoint != nil {
		dir = e.cfg.Checkpoint.Dir
	}
	return e.runScenario(ctx, sc, dir)
}

// run is the per-run half of the engine split: everything one
// executing scenario owns alone — the normalized scenario and its
// runtime view, the compiled plan (shared and read-only, cached on the
// engine), the checkpoint handle, the run-local phase histograms and
// the bound progress callback. The Engine holds only shared state;
// a run is built per RunScenario call and dies with it, which is what
// makes overlapping calls safe.
type run struct {
	e      *Engine
	norm   Scenario
	rt     *runtimeScenario
	plan   *attackPlan
	ck     *ckptRun
	phases *phaseSet
}

// runScenario is RunScenario with an explicit checkpoint directory, so
// a sweep can give each scenario its own subdirectory.
func (e *Engine) runScenario(ctx context.Context, sc Scenario, dir string) (*Summary, error) {
	start := time.Now()
	norm, err := sc.normalize(0)
	if err != nil {
		return nil, err
	}
	e.cfg.Trace.Emit(obs.TraceEvent{Event: "run_start", Shard: -1, Detail: norm.Name})
	r := &run{e: e, norm: norm, phases: newPhaseSet()}
	if r.plan, err = e.plan(norm); err != nil {
		return nil, err
	}
	if r.rt, err = e.newRuntime(norm); err != nil {
		return nil, err
	}
	if dir != "" {
		r.ck, err = e.openCheckpoint(dir, norm)
		if err != nil {
			return nil, err
		}
		defer r.ck.j.Close()
	}
	sum, err := r.attack(ctx)
	if err != nil {
		return nil, err
	}
	sum.Scenario = norm.Name
	sum.Policy = norm.Policy
	sum.Backend = e.cracker.Name()
	sum.Workers = e.cfg.Workers
	sum.recomputeCoverage()
	sum.Duration = time.Since(start)
	// Throughput is the cumulative rate: all subscribers ever processed
	// over all wall clock ever spent, across every process that worked
	// on this checkpoint directory. The pre-telemetry code divided the
	// full (resumed + new) victim count by this process's clock alone,
	// overstating resumed runs' rates by the resumed fraction.
	sum.ActiveDuration = sum.Duration
	sum.ResumeVictimsPerSec = 0
	if r.ck != nil {
		sum.ActiveDuration = r.ck.activePrior + sum.Duration
		if r.ck.resumed {
			if secs := sum.Duration.Seconds(); secs > 0 {
				sum.ResumeVictimsPerSec = float64(sum.Subscribers-r.ck.subsPrior) / secs
			}
		}
	}
	if secs := sum.ActiveDuration.Seconds(); secs > 0 {
		sum.VictimsPerSec = float64(sum.Subscribers) / secs
	}
	sum.PhaseTimings = r.phases.timings()
	if r.ck != nil {
		payload, err := json.Marshal(sum)
		if err != nil {
			return nil, fmt.Errorf("campaign: encode final summary: %w", err)
		}
		if err := r.ck.j.WriteResult(payload); err != nil {
			return nil, err
		}
	}
	e.cfg.Trace.Emit(obs.TraceEvent{Event: "run_done", Shard: -1, Subscribers: sum.Subscribers})
	e.cfg.Trace.Flush()
	return sum, nil
}

// runtimeScenario is a normalized scenario with its draw helpers
// precomputed: the cell mix, the budget arithmetic, and the victim
// segment compiled to a service bitset.
type runtimeScenario struct {
	sc         Scenario
	mix        telecom.CellMix
	receivers  uint64
	channels   uint64
	sessions   int
	reauthSkip float64
	// domainMask is nil for "everyone", else the catalog services of
	// the segment's domain as a bitset matching Subscriber.Enrolled.
	domainMask population.ServiceSet
}

// newRuntime compiles a normalized scenario's runtime view.
func (e *Engine) newRuntime(sc Scenario) (*runtimeScenario, error) {
	rt := &runtimeScenario{
		sc:         sc,
		mix:        sc.Radio.cellMix(),
		receivers:  uint64(sc.Budget.Receivers),
		channels:   uint64(sc.Budget.CellChannels),
		sessions:   sc.Radio.OTPSessions,
		reauthSkip: sc.Radio.ReauthSkip,
	}
	if sc.Segment.Domain != "" {
		dom, err := domainByName(sc.Segment.Domain)
		if err != nil {
			return nil, err
		}
		cat := e.cfg.Population.Catalog()
		rt.domainMask = make(population.ServiceSet, (cat.Len()+63)/64)
		for i, svc := range cat.Services() {
			if svc.Domain == dom {
				rt.domainMask[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return rt, nil
}

// targets reports whether the scenario's victim segment includes sub.
func (rt *runtimeScenario) targets(sub *population.Subscriber) bool {
	if rt.domainMask != nil {
		hit := false
		for w := range rt.domainMask {
			if w < len(sub.Enrolled) && sub.Enrolled[w]&rt.domainMask[w] != 0 {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	switch rt.sc.Segment.LeakTier {
	case LeakTierLeaked:
		return sub.Leaked
	case LeakTierClean:
		return !sub.Leaked
	case LeakTierBreach:
		return sub.Class == population.LeakBreach
	case LeakTierWiFi:
		return sub.Class == population.LeakWiFi
	}
	return true
}

// shardResult pairs a completed shard with its partial summary so the
// aggregator can journal it under the right index.
type shardResult struct {
	shard int
	part  *Summary
}

// attack streams every owned, not-yet-journaled shard through the
// run's worker pool and aggregates the partial summaries. Each worker
// acquires one slot of the engine-wide shard budget per shard, so
// concurrent runs collectively never exceed cfg.Workers shards in
// flight. With a checkpoint, the aggregator (the journal's single
// owner) appends each merged part and folds periodic snapshots; a
// journal failure — including an injected crash — cancels the run and
// drains the pool so no worker goroutine outlives the call.
func (r *run) attack(ctx context.Context) (*Summary, error) {
	e := r.e
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pop := e.cfg.Population
	numServices := len(pop.Services())
	shards := make(chan int)
	parts := make(chan shardResult, e.cfg.Workers)

	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr := newScratch(r.plan)
			defer scr.release()
			// A shell network per worker: the rig only needs the key
			// space; no cells, no subscribers, no global lock shared
			// with other workers.
			net := telecom.NewNetwork(telecom.Config{
				KeySpace: e.space,
				Seed:     pop.Seed(),
			})
			for i := range shards {
				select {
				case e.shardSem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				part := r.runShard(ctx, i, net, scr)
				<-e.shardSem
				if part == nil {
					return // canceled mid-retry
				}
				select {
				case parts <- shardResult{shard: i, part: part}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	var skip []bool
	if r.ck != nil {
		skip = r.ck.done
	}
	feedErr := make(chan error, 1)
	go func() {
		feedErr <- feedShards(ctx, shards, e.cfg.ShardLo, e.cfg.ShardHi, skip)
		wg.Wait()
		close(parts)
	}()

	sum := newSummary(numServices)
	seedShards := 0
	if r.ck != nil {
		sum = r.ck.seed
		for _, d := range r.ck.done {
			if d {
				seedShards++
			}
		}
	}
	subs0, skip0 := sum.Subscribers, sum.SubscribersSkipped
	shardsTotal := int64(e.cfg.ShardHi - e.cfg.ShardLo)
	subsTotal := int64(pop.Size())
	mergedShards := 0
	prog.attach(shardsTotal, subsTotal, int64(seedShards), subs0, skip0)
	defer func() {
		prog.detach(shardsTotal, subsTotal, int64(seedShards+mergedShards),
			sum.Subscribers, sum.SubscribersSkipped, sum.Subscribers-subs0)
	}()
	progress := func() {
		if e.cfg.ScenarioProgress != nil {
			e.cfg.ScenarioProgress(r.norm.Name, int(sum.Subscribers+sum.SubscribersSkipped), pop.Size())
		}
	}
	if sum.Subscribers+sum.SubscribersSkipped > 0 {
		progress() // resumed shards count as done up front
	}
	var runErr error
	for res := range parts {
		if runErr != nil {
			continue // draining after failure so the pool can exit
		}
		aggStart := time.Now()
		sum.Merge(res.part)
		mergedShards++
		prog.merge(res.part.Subscribers, res.part.SubscribersSkipped)
		progress()
		if r.ck != nil {
			if err := r.journalShard(res.shard, res.part, sum); err != nil {
				runErr = err
				cancel()
			} else {
				metShardsJournaled.Inc()
			}
		}
		r.phases.observe("aggregate", aggStart)
	}
	ferr := <-feedErr
	if runErr != nil {
		return nil, runErr
	}
	if ferr != nil {
		return nil, ferr
	}
	return sum, nil
}

// journalShard appends one shard's partial summary and folds a
// snapshot of the merged state when one is due. An error — including
// an injected crash — means the run must stop writing immediately.
// Each snapshot carries the run's cumulative active duration so far,
// so a resuming process can keep accounting wall clock across the
// crash boundary instead of restarting the throughput denominator.
func (r *run) journalShard(shard int, part, sum *Summary) error {
	ck := r.ck
	payload, err := json.Marshal(part)
	if err != nil {
		return fmt.Errorf("campaign: encode shard %d summary: %w", shard, err)
	}
	if err := ck.j.Append(shard, payload); err != nil {
		return err
	}
	r.e.cfg.Trace.Emit(obs.TraceEvent{Event: "journal_append", Shard: shard, Subscribers: part.Subscribers})
	if !ck.j.Due() {
		return nil
	}
	sum.ActiveDuration = ck.activePrior + time.Since(ck.start)
	snap, err := json.Marshal(sum)
	if err != nil {
		return fmt.Errorf("campaign: encode snapshot: %w", err)
	}
	if err := ck.j.Snapshot(snap); err != nil {
		return err
	}
	r.e.cfg.Trace.Emit(obs.TraceEvent{Event: "snapshot", Shard: -1})
	r.e.cfg.Trace.Flush()
	return nil
}

// runShard attempts shard i against the fault injector's schedule:
// transient failures retry with bounded exponential backoff, while a
// poisoned shard or an exhausted attempt budget degrades to a
// quarantine summary — the shard's subscribers are counted as skipped
// and the run continues, reporting an explicit coverage fraction
// instead of aborting. A nil return means ctx was canceled mid-retry.
func (r *run) runShard(ctx context.Context, i int, net *telecom.Network, scr *scratch) *Summary {
	e := r.e
	pop := e.cfg.Population
	for attempt := 0; ; attempt++ {
		metShardsStarted.Inc()
		e.cfg.Trace.Emit(obs.TraceEvent{Event: "shard_start", Shard: i, Attempt: attempt})
		err := e.cfg.Fault.ShardAttempt(i, attempt)
		if err == nil {
			genStart := time.Now()
			sh := pop.Shard(i)
			r.phases.observe("generate", genStart)
			part := r.attackShard(sh, net, scr)
			sh.Release()
			e.cfg.Trace.Emit(obs.TraceEvent{Event: "shard_done", Shard: i, Attempt: attempt, Subscribers: part.Subscribers})
			return part
		}
		if faultinject.IsTransient(err) && attempt+1 < e.cfg.MaxShardAttempts {
			metShardsRetried.Inc()
			e.cfg.Trace.Emit(obs.TraceEvent{Event: "shard_retry", Shard: i, Attempt: attempt, Detail: err.Error()})
			if !sleepCtx(ctx, faultinject.Backoff(e.cfg.RetryBackoff, attempt, e.cfg.RetryBackoffMax)) {
				return nil
			}
			continue
		}
		metShardsQuarantined.Inc()
		e.cfg.Trace.Emit(obs.TraceEvent{Event: "shard_quarantine", Shard: i, Attempt: attempt, Detail: err.Error()})
		part := newSummary(len(pop.Services()))
		start, end := pop.ShardBounds(i)
		part.ShardsQuarantined = 1
		part.SubscribersSkipped = int64(end - start)
		return part
	}
}

// sleepCtx waits d (or not at all), reporting false when ctx was
// canceled first — the retry loop's cancellation point.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		select {
		case <-ctx.Done():
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// feedShards sends the not-yet-done shards of [lo, hi) on ch, honoring
// cancellation, and closes it.
func feedShards(ctx context.Context, ch chan<- int, lo, hi int, done []bool) error {
	defer close(ch)
	for i := lo; i < hi; i++ {
		if done != nil && done[i] {
			continue // journaled by a previous process; resume skips it
		}
		select {
		case ch <- i:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// otpTimestamp keeps synthesized TPDUs deterministic.
var otpTimestamp = time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC)

// baseARFCN is the first channel of the synthesized campaign cell;
// victims spread across [baseARFCN, baseARFCN+CellChannels).
const baseARFCN = 512

// attackShard runs one batch end to end, gather-then-encrypt: walk the
// shard once collecting every targeted victim's session descriptors
// (the per-victim draws and COUNT schedule are identical to the former
// encode-as-you-go path), encrypt the gathered A5/1 sessions in
// 64-lane bitsliced blocks, feed the bursts to a pooled sniffer rig
// backed by the shared cracker, then evaluate the chain reaction of
// the intercepted victims, 64 lanes at a time, against the scenario's
// compiled plan.
func (r *run) attackShard(sh *population.Shard, net *telecom.Network, scr *scratch) *Summary {
	e, rt, plan := r.e, r.rt, r.plan
	pop := e.cfg.Population
	part := newSummary(len(pop.Services()))
	part.Subscribers = int64(len(sh.Subscribers))
	if n := len(sh.Subscribers); n > 0 {
		metPopBytesPerSub.Set(float64(sh.MemBytes() / n))
	}

	// Per-shard leak accounting (persona phones are unique, so summing
	// shard counts equals the size of the merged leak databases): the
	// count lands in the journaled partial, which keeps resumed and
	// multi-process runs exact.
	part.LeakRecords = int64(sh.LeakCount)

	// Per-shard IMSI strings are carved from the shard-cycle arena:
	// they reach the sniffer rig's session caches, which releaseRig
	// resets before this worker's next shard reuses the arena.
	scr.strs.Reset()

	rig := e.rig(net, r.phases.crack())
	defer e.releaseRig(rig)
	synthStart := time.Now()
	draws := &e.draws
	sessions := rt.sessions
	scr.covered = boolScratch(scr.covered, len(sh.Subscribers))
	covered := scr.covered
	frame := uint32(0)

	// Gather phase: one shared OTP TPDU serves every synthesized
	// session, so the burst count driving the COUNT schedule is computed
	// once up front instead of marshaling per session. An unencodable
	// TPDU keeps the targeting/coverage counters and synthesizes nothing
	// — exactly what per-session encode failures used to do.
	deliver := gsmcodec.Deliver{
		Originator: "ActFort",
		Timestamp:  otpTimestamp,
		Text:       "Code 845512",
	}
	encodable := false
	perSession := uint32(0)
	if raw, err := deliver.Marshal(); err == nil {
		encodable = true
		perSession = uint32(telecom.SessionBurstCount(len(raw)))
	}
	batch := scr.radio[:0]
	for li := range sh.Subscribers {
		sub := &sh.Subscribers[li]
		if !rt.targets(sub) {
			continue // outside the scenario's victim segment
		}
		part.Targeted++
		idx := uint64(sub.Index)
		// The victim's serving channel: covered only when one of the
		// fleet's receivers camps on it.
		channel := uint64(draws.coverage.At(idx)) % rt.channels
		if channel >= rt.receivers {
			continue // victim's channel outside the rig's fleet
		}
		covered[li] = true
		part.Covered++
		if !encodable {
			continue
		}
		scr.phone = sub.AppendIMSI(scr.phone[:0])
		imsi := slab.StringOf(&scr.strs, scr.phone)
		mode := rt.mix.Mode(population.Unit(uint64(draws.cipher.At(idx))))
		reauth, randDraw := draws.reauth.At(idx), draws.rand.At(idx)
		epoch := uint64(0)
		var rnd [16]byte
		var kc uint64
		for s := 0; s < sessions; s++ {
			fresh := s == 0
			if s > 0 && population.Unit(uint64(reauth.At(uint64(s)))) >= rt.reauthSkip {
				epoch++ // operator re-authenticated: fresh RAND, fresh Kc
				fresh = true
			}
			if fresh {
				// RAND and Kc only change with the auth epoch, so the
				// SHA-based derivations run once per epoch, not per
				// session (the values are identical either way).
				rnd = rand16(uint64(randDraw.At(epoch)))
				kc = telecom.SessionKey(pop.Seed(), imsi, rnd, e.space)
			}
			// Schedule the session's paging burst on the next CCCH
			// paging block, as the live network does, so the table
			// backend's frame classes cover it.
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
				Deliver:    deliver,
			})
			frame = start + perSession
			part.Sessions++
			switch mode {
			case telecom.CipherA50:
				part.A50Sessions++
			case telecom.CipherA53:
				part.A53Sessions++
			}
		}
	}
	scr.radio = batch // keep the grown buffer for the next shard
	r.phases.observe("synth", synthStart)

	// Encrypt phase: the whole shard's A5/1 bursts run through the
	// 64-lane bitsliced encryptor, then the rig hears every burst in
	// session order.
	if len(batch) > 0 {
		encStart := time.Now()
		// The flat trace lives in the worker's pooled burst buffer:
		// FeedBatch copies what it keeps and campaign traffic is
		// lossless (every session completes within the call), so the
		// buffer is free for reuse as soon as it returns.
		flat, err := telecom.EncodeSMSBurstsInto(batch, scr.bursts)
		if err != nil {
			// The shared TPDU marshaled above, so the batch cannot fail;
			// reaching here means the session counters above are already
			// wrong, and silently dropping the shard's traffic would
			// change the Summary undetected.
			panic(fmt.Sprintf("campaign: batch encode of pre-validated sessions failed: %v", err))
		}
		r.phases.observe("encrypt", encStart)
		feedStart := time.Now()
		rig.FeedBatch(flat)
		r.phases.observe("feed", feedStart)
	}

	closureStart := time.Now()
	// Attribute decoded captures back to victims via session IDs.
	scr.intercepted = boolScratch(scr.intercepted, len(sh.Subscribers))
	intercepted := scr.intercepted
	for _, c := range rig.Captures() {
		intercepted[int(c.SessionID)/sessions] = true
	}
	part.Sniffer.Add(rig.Stats())

	// Chain-reaction phase: the intercepted victims, 64 to a lane
	// group, each lane knowing up front what the victim's dossier in
	// the attacker's leak databases (§V.A.1) supplies.
	g := &scr.lanes
	for li := range sh.Subscribers {
		if !covered[li] || !intercepted[li] {
			continue
		}
		sub := &sh.Subscribers[li]
		part.Intercepted++
		if sub.Leaked {
			part.DossierHits++
		}
		plan.addLane(g, sub.Enrolled, plan.know[pop.Dossier(sub)])
		if g.n == 64 {
			plan.closeGroup(g, part)
		}
	}
	if g.n > 0 {
		plan.closeGroup(g, part)
	}
	r.phases.observe("closure", closureStart)
	return part
}

// victimDraws are the per-victim radio draw streams, each prefixed on
// (population seed, tag): the victim's draw is its stream extended by
// the subscriber index, and the per-session draws extend that by the
// session index (reauth) or the auth epoch (RAND). They equal
// population.Mix over the same values, one splitmix per extension.
type victimDraws struct {
	coverage, cipher, reauth, rand population.Stream
}

func newVictimDraws(seed uint64) victimDraws {
	return victimDraws{
		coverage: population.NewStream(seed, population.TagCoverage),
		cipher:   population.NewStream(seed, population.TagCipher),
		reauth:   population.NewStream(seed, population.TagReauth),
		rand:     population.NewStream(seed, population.TagRAND),
	}
}

// rand16 expands one draw into a RAND challenge.
func rand16(h uint64) [16]byte {
	var out [16]byte
	binary.BigEndian.PutUint64(out[:8], h)
	binary.BigEndian.PutUint64(out[8:], population.Mix(h, 0x52414E44))
	return out
}
