package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/population"
)

// batchSpec is an in-process workload: one engine over a seeded
// population, timed over repeated passes of a scenario list.
type batchSpec struct {
	subscribers int
	// scenarios runs through Engine.RunScenario when it holds one
	// scenario and through Engine.RunSweep otherwise.
	scenarios []campaign.Scenario
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// replayShards is how many contiguous shards the traced run replays
	// per scenario.
	replayShards int
}

// warmup is the untimed pass after set-up: a fleet of zero receivers
// covers nobody, so the pass generates and harvests every shard (the
// one-off leak-database build) and checks out the rigs, but sniffs and
// cracks nothing.
var warmup = campaign.Scenario{Name: "warmup", Budget: campaign.AttackerBudget{Receivers: -1}}

// batchEngine is one set-up engine with its shard-lifecycle trace.
type batchEngine struct {
	pop     *population.Population
	eng     *campaign.Engine
	trace   *obs.TraceWriter
	path    string
	offset  int64         // trace bytes before the timed window
	cracker *timedCracker // non-nil in traced runs
}

// setupBatch builds the population and engine (including the TMTO
// table) and runs the warm-up: everything a user pays before the first
// answer.
func setupBatch(ctx context.Context, spec batchSpec, seed int64, traced bool, path string) (*batchEngine, error) {
	pop, err := population.New(population.Config{Seed: seed, Size: spec.subscribers})
	if err != nil {
		return nil, err
	}
	tw, err := obs.OpenTraceFile(path)
	if err != nil {
		return nil, err
	}
	be := &batchEngine{pop: pop, trace: tw, path: path}
	cfg := campaign.Config{Population: pop, Trace: tw}
	if traced {
		table, err := buildTable()
		if err != nil {
			tw.Close()
			return nil, err
		}
		be.cracker = newTimedCracker(table)
		cfg.Cracker = be.cracker
	}
	if be.eng, err = campaign.New(cfg); err != nil {
		tw.Close()
		return nil, err
	}
	if _, err := be.eng.RunScenario(ctx, warmup); err != nil {
		tw.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	tw.Flush()
	fi, err := os.Stat(path)
	if err != nil {
		tw.Close()
		return nil, err
	}
	be.offset = fi.Size()
	return be, nil
}

// pass is one timed execution of the workload's scenario list.
type pass struct {
	wall      time.Duration
	summaries []*campaign.Summary
	runs      []time.Duration // per-scenario wall clock
	errs      []error
	timed     bool // the timing cracker was on (traced runs)
}

func (be *batchEngine) runPass(ctx context.Context, spec batchSpec) pass {
	start := time.Now()
	var p pass
	if len(spec.scenarios) == 1 {
		s, err := be.eng.RunScenario(ctx, spec.scenarios[0])
		p.wall = time.Since(start)
		if err != nil {
			p.errs = append(p.errs, err)
			return p
		}
		p.summaries = append(p.summaries, s)
		p.runs = append(p.runs, s.Duration)
		return p
	}
	sw, err := be.eng.RunSweep(ctx, spec.scenarios)
	p.wall = time.Since(start)
	if err != nil {
		p.errs = append(p.errs, err)
		return p
	}
	for _, r := range sw.Results {
		if r.Error != "" {
			p.errs = append(p.errs, fmt.Errorf("scenario %s: %s", r.Scenario.Name, r.Error))
			continue
		}
		p.summaries = append(p.summaries, r.Summary)
		p.runs = append(p.runs, r.Duration)
	}
	return p
}

// runBatch measures a batch workload: set-up repeated spec.setups times
// (the last engine is kept), then whole passes until the next one would
// overrun the window, then — traced — the per-layer replay.
func runBatch(ctx context.Context, env *runEnv, spec batchSpec) (*report, error) {
	rep := newReport()
	var be *batchEngine
	var setups []float64
	for i := 0; i < spec.setups; i++ {
		if be != nil {
			be.trace.Close()
			be = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		be, err = setupBatch(ctx, spec, env.seed, env.traced, env.file(fmt.Sprintf("shards-%d.jsonl", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer be.trace.Close()

	victimsPerPass := float64(spec.subscribers * len(spec.scenarios))
	window := time.Duration(env.seconds * float64(time.Second))
	var passes []pass
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPU()
	start := time.Now()
	for {
		// Traced runs alternate the timing cracker off and on, so the
		// tracing overhead is measured on one engine in one process.
		timed := env.traced && len(passes)%2 == 1
		if be.cracker != nil {
			be.cracker.on.Store(timed)
		}
		p := be.runPass(ctx, spec)
		p.timed = timed
		passes = append(passes, p)
		if time.Since(start)+p.wall > window {
			break
		}
	}
	elapsed := time.Since(start)
	cpu1 := readCPU()
	runtime.ReadMemStats(&ms1)
	if be.cracker != nil {
		be.cracker.on.Store(false)
	}

	// Output checks: every summary's invariants, and one digest per
	// scenario across every pass of the run.
	for _, p := range passes {
		rep.attempted += len(spec.scenarios)
		for _, err := range p.errs {
			rep.fail("%v", err)
		}
		for _, s := range p.summaries {
			if err := checkSummary(s, spec.subscribers); err != nil {
				rep.fail("%v", err)
			}
			rep.digest(s.Scenario, summaryDigest(s))
		}
	}

	shardLat, err := shardLatencies(be)
	if err != nil {
		return nil, err
	}
	var rates, timedRates, untimedRates []float64
	for _, p := range passes {
		r := victimsPerPass / p.wall.Seconds()
		rates = append(rates, r)
		if p.timed {
			timedRates = append(timedRates, r)
		} else {
			untimedRates = append(untimedRates, r)
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rep.note("window: %d passes of %d scenario(s) × %d subscribers in %.2fs; %d shard results",
		len(passes), len(spec.scenarios), spec.subscribers, elapsed.Seconds(), len(shardLat))

	if !env.traced {
		rep.setEndToEnd(median(setups), median(rates), rss, shardLat)
		return rep, nil
	}

	// Per-layer metrics. Engine-level figures come from the timed window;
	// the layer calls come from the replay after it.
	workers := float64(runtime.GOMAXPROCS(0))
	var timedWall time.Duration
	for _, p := range passes {
		if p.timed {
			timedWall += p.wall
		}
	}
	var sums []*campaign.Summary
	var runs []float64
	for _, p := range passes {
		sums = append(sums, p.summaries...)
		for _, d := range p.runs {
			runs = append(runs, d.Seconds())
		}
	}
	cc := be.cracker.counts() // before the replay adds its own calls
	lt, err := replayAndCheck(ctx, be.pop, spec, be.cracker)
	if err != nil {
		rep.fail("%v", err)
	}
	victims := victimsPerPass * float64(len(passes))
	m := rep.layer
	setLayerTimes(m, lt)
	setEngineLayers(m, sums, workers*elapsed.Seconds())
	setCrackerLayers(m, cc)
	m["a51.recover_share"] = ratio(cc.busy.Seconds(), workers*timedWall.Seconds())
	m["population.gen_share"] = ratio(lt.gen.Seconds()/float64(lt.subs)*victims, workers*elapsed.Seconds())
	m["campaign.rigs_built"] = float64(be.eng.RigsBuilt())
	m["campaign.run_s"] = median(runs)
	m["runtime.allocs_per_victim"] = float64(ms1.Mallocs-ms0.Mallocs) / victims
	m["runtime.alloc_bytes_per_victim"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / victims
	m["runtime.gc_cpu_frac"] = ratio(cpu1.gc-cpu0.gc, cpu1.total-cpu0.total)
	for _, name := range serviceOnly {
		m[name] = 0
	}
	m["trace.victims_per_s"] = median(timedRates)
	m["trace.overhead_frac"] = 1 - ratio(median(timedRates), median(untimedRates))
	return rep, nil
}

// replayAndCheck replays spec.replayShards shards from the middle of
// the population for every scenario of the workload, timing each
// layer's calls (the cracker's too), and self-checks each replay against
// the engine with the cracker's timer off.
func replayAndCheck(ctx context.Context, pop *population.Population, spec batchSpec, tc *timedCracker) (layerTimes, error) {
	var total layerTimes
	n := min(spec.replayShards, pop.NumShards())
	lo := (pop.NumShards() - n) / 2
	hi := lo + n
	for _, sc := range spec.scenarios {
		tc.on.Store(true)
		rc, lt, err := replayRange(pop, sc, lo, hi, tc)
		tc.on.Store(false)
		if err != nil {
			return total, fmt.Errorf("replay %s: %w", sc.Name, err)
		}
		total.plus(lt)
		if err := selfCheck(ctx, pop, sc, lo, hi, tc, rc); err != nil {
			return total, err
		}
	}
	return total, nil
}

// shardLatencies reads the shard-lifecycle trace written during the
// timed window and returns each shard attempt's latency in ms, from
// shard_start (slot acquired) to shard_done.
func shardLatencies(be *batchEngine) ([]float64, error) {
	be.trace.Flush()
	f, err := os.Open(be.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(be.offset, io.SeekStart); err != nil {
		return nil, err
	}
	open := map[int]float64{}
	var out []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev obs.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("shard trace: %w", err)
		}
		switch ev.Event {
		case "shard_start":
			open[ev.Shard] = ev.TS
		case "shard_done":
			if t, ok := open[ev.Shard]; ok {
				out = append(out, ev.TS-t)
				delete(open, ev.Shard)
			}
		}
	}
	return out, sc.Err()
}
