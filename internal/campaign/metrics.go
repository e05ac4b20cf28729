package campaign

import (
	"sync"
	"time"

	"github.com/actfort/actfort/internal/obs"
)

// Engine telemetry on the process-wide obs registry: shard lifecycle
// counters, the rig-pool churn the ROADMAP called out, per-phase
// latency histograms split out of attackShard, and the run-progress
// gauges the -progress ticker and live scrapes read. Handles are
// package-level (one engine's shards dominate a process; concurrent
// engines aggregate, which is the honest process-wide view), and every
// hot-path touch is an atomic add or a per-shard Observe — a few per
// shard of thousands of subscribers, unmeasurable next to the shard
// itself.
var (
	metShardsStarted = obs.Default.NewCounter("campaign_shards_started_total",
		"Shard attack attempts started, counting retries of the same shard separately.")
	metShardsRetried = obs.Default.NewCounter("campaign_shards_retried_total",
		"Shard attempts that failed transiently and were retried with backoff.")
	metShardsQuarantined = obs.Default.NewCounter("campaign_shards_quarantined_total",
		"Shards abandoned after exhausting their attempt budget; their subscribers count as skipped.")
	metShardsJournaled = obs.Default.NewCounter("campaign_shards_journaled_total",
		"Shard results durably appended to the checkpoint journal.")
	metRigsBuilt = obs.Default.NewCounter("campaign_rigs_built_total",
		"Sniffer rigs constructed because the pool had no free rig for the radio environment.")
	metRigsReused = obs.Default.NewCounter("campaign_rigs_reused_total",
		"Shard attacks served by a pooled rig instead of a fresh build.")

	// Run-progress gauges, aggregated across every run in flight by
	// runProgress below. The cmd/campaign -progress ticker renders its
	// one-line status from exactly these series.
	metRunShardsDone = obs.Default.NewGauge("campaign_run_shards_done",
		"Shards completed (journaled or merged) across the currently running scenarios, including resumed ones.")
	metRunShardsTotal = obs.Default.NewGauge("campaign_run_shards_total",
		"Shards owned by the currently running scenarios (the engine's shard range, summed over overlapping runs).")
	metRunSubsDone = obs.Default.NewGauge("campaign_run_subscribers_done",
		"Subscribers processed or skipped so far across the currently running scenarios.")
	metRunSubsTotal = obs.Default.NewGauge("campaign_run_subscribers_total",
		"Population size of the currently running scenarios (summed over overlapping runs).")
	metVictimsPerSec = obs.Default.NewGauge("campaign_victims_per_sec",
		"Live throughput across running scenarios: subscribers processed by THIS process over its elapsed time.")
	metCoverage = obs.Default.NewGauge("campaign_coverage_fraction",
		"Live processed/(processed+skipped) fraction; below 1.0 means quarantined shards degraded coverage.")
	metPopBytesPerSub = obs.Default.NewGauge("campaign_population_bytes_per_subscriber",
		"Resident bytes per subscriber of the last generated shard: the subscriber structs plus the enrollment arena.")
)

// phaseNames are the per-shard stages the campaign_phase_seconds
// histogram labels: shard generation, the attackShard stages, and
// "aggregate", the aggregator's merge+journal work per shard. The
// crack stage lives in the sniffer (sniffer_crack_batch_seconds): key
// recovery happens inside feed.
var phaseNames = []string{"generate", "synth", "encrypt", "feed", "closure", "aggregate"}

// phaseOrder is the fixed presentation order of Summary.PhaseTimings:
// the per-shard stages in execution order, with the sniffer's crack
// stage (which runs inside feed) slotted after it.
var phaseOrder = []string{"generate", "synth", "encrypt", "feed", "crack", "closure", "aggregate"}

// phaseHists resolves one histogram handle per phase, in phaseNames
// order. These are the process-lifetime series /metrics scrapes; they
// stay live no matter how many runs overlap.
var phaseHists = func() map[string]*obs.Histogram {
	m := make(map[string]*obs.Histogram, len(phaseNames))
	for _, p := range phaseNames {
		m[p] = obs.Default.NewHistogram("campaign_phase_seconds",
			"Per-shard wall time of each pipeline phase (generate=population shard, synth=gather, encrypt=batch cipher, feed=rig ingest incl. cracks, closure=chain reactions, aggregate=merge+journal).",
			obs.LatencyBuckets, obs.L("phase", p))
	}
	return m
}()

// phaseSet is one run's private phase histograms. Summary.PhaseTimings
// used to be computed by diffing snapshots of the process-lifetime
// histograms above, which silently mixes concurrent runs together; a
// phaseSet scopes the timings to the run that owns it. observe folds
// every sample into the global registry series too, so live scrapes
// see exactly what they always did.
type phaseSet struct {
	local map[string]*obs.Histogram
}

// newPhaseSet builds a fresh run-local histogram per phase, plus one
// for the sniffer's crack stage (fed via Sniffer.SetCrackObserver
// while this run has a rig checked out).
func newPhaseSet() *phaseSet {
	ps := &phaseSet{local: make(map[string]*obs.Histogram, len(phaseOrder))}
	for _, p := range phaseOrder {
		ps.local[p] = obs.NewLocalHistogram(obs.LatencyBuckets)
	}
	return ps
}

// observe records one phase sample into both the run-local histogram
// and the process-lifetime registry series.
func (ps *phaseSet) observe(phase string, start time.Time) {
	sec := time.Since(start).Seconds()
	ps.local[phase].Observe(sec)
	phaseHists[phase].Observe(sec)
}

// crack is the run-local histogram the rigs' batched-crack durations
// land in (the sniffer observes the global series itself).
func (ps *phaseSet) crack() *obs.Histogram { return ps.local["crack"] }

// timings builds the Summary's per-phase breakdown from the run-local
// histograms, in fixed presentation order, skipping phases that never
// ran.
func (ps *phaseSet) timings() []PhaseTiming {
	out := make([]PhaseTiming, 0, len(phaseOrder))
	for _, p := range phaseOrder {
		s := ps.local[p].Snapshot()
		if s.Count == 0 {
			continue
		}
		out = append(out, PhaseTiming{
			Phase: p,
			Count: s.Count,
			Total: time.Duration(s.Sum * float64(time.Second)),
			P50:   time.Duration(s.Quantile(0.50) * float64(time.Second)),
			P90:   time.Duration(s.Quantile(0.90) * float64(time.Second)),
			P99:   time.Duration(s.Quantile(0.99) * float64(time.Second)),
		})
	}
	return out
}

// runProgress aggregates the run-progress gauges across every run in
// flight in this process. Each run attaches its totals on start,
// reports per-merged-shard deltas, and detaches on exit; the published
// gauges are the sums over attached runs. When the last run detaches
// the gauges keep their final values (a scrape just after a campaign
// still sees what it did), and the next attach starting from idle
// resets the window.
type runProgress struct {
	mu     sync.Mutex
	active int
	start  time.Time // when active last left 0: the throughput window

	shardsDone, shardsTotal int64
	subsProc, subsSkip      int64 // processed/skipped, incl. resumed seeds
	subsTotal               int64
	window                  int64 // subscribers processed by THIS process this window
}

// prog is the process-wide aggregator behind the campaign_run_* gauges.
var prog runProgress

// attach registers a starting run: its shard range and population
// totals plus whatever a checkpoint resume already accounts for.
func (p *runProgress) attach(shardsTotal, subsTotal, doneShards, proc, skip int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active == 0 {
		// A fresh window: drop the frozen final values of the last burst
		// of runs (the mutex itself must survive the reset).
		p.start = time.Now()
		p.shardsDone, p.shardsTotal = 0, 0
		p.subsProc, p.subsSkip, p.subsTotal = 0, 0, 0
		p.window = 0
	}
	p.active++
	p.shardsTotal += shardsTotal
	p.subsTotal += subsTotal
	p.shardsDone += doneShards
	p.subsProc += proc
	p.subsSkip += skip
	p.publish()
}

// merge folds one merged shard's contribution in.
func (p *runProgress) merge(proc, skip int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shardsDone++
	p.subsProc += proc
	p.subsSkip += skip
	p.window += proc
	p.publish()
}

// detach removes a finished run's contributions — unless it was the
// last one, in which case the gauges freeze at their final values.
func (p *runProgress) detach(shardsTotal, subsTotal, doneShards, proc, skip, window int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active--
	if p.active == 0 {
		return
	}
	p.shardsTotal -= shardsTotal
	p.subsTotal -= subsTotal
	p.shardsDone -= doneShards
	p.subsProc -= proc
	p.subsSkip -= skip
	p.window -= window
	p.publish()
}

// publish pushes the aggregate onto the gauges. Callers hold p.mu.
func (p *runProgress) publish() {
	metRunShardsDone.Set(float64(p.shardsDone))
	metRunShardsTotal.Set(float64(p.shardsTotal))
	metRunSubsDone.Set(float64(p.subsProc + p.subsSkip))
	metRunSubsTotal.Set(float64(p.subsTotal))
	if el := time.Since(p.start).Seconds(); el > 0 {
		metVictimsPerSec.Set(float64(p.window) / el)
	}
	if tot := p.subsProc + p.subsSkip; tot > 0 {
		metCoverage.Set(float64(p.subsProc) / float64(tot))
	}
}
