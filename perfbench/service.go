package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/countermeasure"
	"github.com/actfort/actfort/internal/population"
)

// Query-service request paths.
const (
	pathScenario = "/v1/scenario"
	pathSweep    = "/v1/sweep"
)

// serviceSpec is the open-loop query workload against a campaignd
// subprocess.
type serviceSpec struct {
	subscribers, shardSize int
	// rate is the mean Poisson arrival rate in requests per second.
	rate float64
	// sweepFrac is the share of requests that are 2-scenario sweeps.
	sweepFrac float64
	// envs is how many distinct radio environments requests draw from.
	envs int
	// latencyLimit is the p95 target goodput counts against.
	latencyLimit time.Duration
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// checkBodies is how many distinct bodies are re-run in process.
	checkBodies int
}

var serviceMix = serviceSpec{
	subscribers:  4096,
	shardSize:    1024,
	rate:         10,
	sweepFrac:    0.1,
	envs:         16,
	latencyLimit: 500 * time.Millisecond,
	setups:       5,
	checkBodies:  6,
}

// maxSchedLateMs bounds the generator's p95 dispatch delay.
const maxSchedLateMs = 25.0

// budgets are the receiver fleets service requests draw from.
var budgets = []campaign.AttackerBudget{budget(16), budget(8), budget(4), budget(2)}

// envSeed fixes the radio-environment set: the workload seed varies the
// schedule and the population, never which environments exist, so the
// rig pool's working set is the same on every run.
const envSeed = 0x5EED_E4F5

// radioEnvs draws n distinct radio environments from a fixed seed.
func radioEnvs(n int) []campaign.RadioEnv {
	rng := rand.New(rand.NewPCG(envSeed, 1))
	round := func(x float64) float64 { return math.Round(x*100) / 100 }
	out := make([]campaign.RadioEnv, n)
	for i := range out {
		out[i] = campaign.RadioEnv{
			A50Fraction: round(0.05 + 0.35*rng.Float64()),
			A53Fraction: round(0.4 * rng.Float64()),
			ReauthSkip:  round(0.3 + 0.6*rng.Float64()),
			OTPSessions: 2 + rng.IntN(3),
		}
	}
	return out
}

// request is one scheduled query.
type request struct {
	due  time.Duration // offset from the schedule start
	path string
	name string // the scenario names, which identify the body
	body []byte
}

// schedule draws the open-loop request schedule for one seed. Arrivals
// are a Poisson process conditioned on its count — rate×window requests
// at sorted uniform times — so seeds change when requests arrive, not
// how many. The queries are block-randomized over policies × radio
// environments × budgets (every combination once per block, in seeded
// order), and a seeded sweepFrac of them are 2-scenario /v1/sweep
// requests, so seeds change the order of the mix, not its make-up.
func schedule(spec serviceSpec, seed int64, window time.Duration) []request {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5C4ED))
	envs := radioEnvs(spec.envs)
	var combos []campaign.Scenario
	for _, p := range countermeasure.Policies() {
		for e, env := range envs {
			for _, b := range budgets {
				combos = append(combos, campaign.Scenario{
					Name:   fmt.Sprintf("%s.e%02d.b%d", p.Name, e, b.Receivers),
					Policy: p.Name,
					Radio:  env,
					Budget: b,
				})
			}
		}
	}
	var block []campaign.Scenario
	next := func() campaign.Scenario {
		if len(block) == 0 {
			block = append(block, combos...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		sc := block[0]
		block = block[1:]
		return sc
	}

	n := int(math.Round(spec.rate * window.Seconds()))
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * window.Seconds()
	}
	slices.Sort(dues)
	sweep := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(math.Round(spec.sweepFrac*float64(n)))] {
		sweep[i] = true
	}
	out := make([]request, n)
	for i := range out {
		sc := next()
		r := request{due: time.Duration(dues[i] * float64(time.Second)), path: pathScenario, name: sc.Name}
		var v any = sc
		if sweep[i] {
			b := next()
			if b.Name == sc.Name { // a block boundary repeated the combination
				b = next()
			}
			r.path, r.name, v = pathSweep, sc.Name+"+"+b.Name, []campaign.Scenario{sc, b}
		}
		body, err := json.Marshal(v)
		if err != nil {
			panic(fmt.Sprintf("perfbench: encode scenario: %v", err)) // plain data always encodes
		}
		r.body = body
		out[i] = r
	}
	return out
}

// daemon is a running campaignd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error // Wait's result
	mu   sync.Mutex
	logs bytes.Buffer
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startDaemon starts campaignd on an ephemeral port and waits until its
// listener is up.
func startDaemon(bin string, spec serviceSpec, seed int64) (*daemon, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-subscribers", strconv.Itoa(spec.subscribers),
		"-shard", strconv.Itoa(spec.shardSize),
		"-seed", strconv.FormatInt(seed, 10))
	// The daemon dies with the benchmark even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start campaignd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs.WriteString(line + "\n")
			d.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case d.base = <-addr:
		return d, nil
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("campaignd exited before listening: %v\n%s", err, d.log())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("campaignd did not listen within 60s\n%s", d.log())
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// pid is the daemon's process id as /proc names it.
func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than 30s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
	select {
	case err := <-d.done:
		d.done <- err
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.done
		d.done <- err
		return fmt.Errorf("campaignd ignored SIGTERM for 30s: %v", err)
	}
}

// waitReady polls readyz until the engine is resident.
func (d *daemon) waitReady(client *http.Client) error {
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(d.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("campaignd not ready within 120s\n%s", d.log())
}

// post sends one query and returns the status and body.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// setupDaemon starts campaignd and takes it through readiness and one
// warm-up query (the leak harvest over every shard).
func setupDaemon(ctx context.Context, env *runEnv, spec serviceSpec, client *http.Client) (*daemon, error) {
	d, err := startDaemon(env.campaignd, spec, env.seed)
	if err != nil {
		return nil, err
	}
	if err := d.waitReady(client); err != nil {
		d.stop()
		return nil, err
	}
	body, _ := json.Marshal(warmup) // plain data always encodes
	status, resp, err := post(ctx, client, d.base+pathScenario, body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, resp)
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	return d, nil
}

// outcome is what the client saw of one request. Times are offsets
// from the schedule start.
type outcome struct {
	dispatched, gotConn, wrote, done time.Duration
	status                           int
	err                              error
	body                             []byte
}

// drive sends the schedule open-loop: each request is dispatched at its
// due time whatever is still in flight; client bounds the connections.
func drive(ctx context.Context, client *http.Client, base string, reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range reqs {
		if wait := time.Until(t0.Add(reqs[i].due)); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = send(ctx, client, base, reqs[i], t0)
		}(i)
	}
	wg.Wait()
	return out
}

// send performs one request, timing connection wait and the write.
func send(ctx context.Context, client *http.Client, base string, r request, t0 time.Time) outcome {
	o := outcome{dispatched: time.Since(t0)}
	var gotConn, wrote atomic.Int64 // hooks may run on transport goroutines
	trace := &httptrace.ClientTrace{
		GotConn:      func(httptrace.GotConnInfo) { gotConn.Store(int64(time.Since(t0))) },
		WroteRequest: func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(t0))) },
	}
	ctx, cancel := context.WithTimeout(httptrace.WithClientTrace(ctx, trace), 90*time.Second)
	defer cancel()
	o.status, o.body, o.err = post(ctx, client, base+r.path, r.body)
	o.done = time.Since(t0)
	o.gotConn, o.wrote = time.Duration(gotConn.Load()), time.Duration(wrote.Load())
	return o
}

// answer is a decoded 2xx response.
type answer struct {
	digest    string
	run       time.Duration // the engine's Duration for the request
	summaries []campaign.Summary
	runs      []time.Duration // per-scenario wall clock
}

// decodeAnswer decodes a response strictly and digests it without its
// run-dependent fields.
func decodeAnswer(path string, body []byte) (answer, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var a answer
	switch path {
	case pathScenario:
		var s campaign.Summary
		if err := dec.Decode(&s); err != nil {
			return a, fmt.Errorf("decode %s response: %w", path, err)
		}
		a.digest, a.run = summaryDigest(&s), s.Duration
		a.summaries, a.runs = []campaign.Summary{s}, []time.Duration{s.Duration}
	case pathSweep:
		var sw campaign.SweepSummary
		if err := dec.Decode(&sw); err != nil {
			return a, fmt.Errorf("decode %s response: %w", path, err)
		}
		a.digest, a.run = sweepDigest(&sw), sw.Duration
		for _, r := range sw.Results {
			if r.Summary == nil {
				return a, fmt.Errorf("sweep scenario %s failed: %s", r.Scenario.Name, r.Error)
			}
			a.summaries = append(a.summaries, *r.Summary)
			a.runs = append(a.runs, r.Duration)
		}
	default:
		return a, fmt.Errorf("no decoder for path %q", path)
	}
	return a, nil
}

// runService measures the open-loop query workload.
func runService(ctx context.Context, env *runEnv, spec serviceSpec) (*report, error) {
	if env.campaignd == "" {
		return nil, fmt.Errorf("service-mix needs --campaignd")
	}
	rep := newReport()
	conns := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()

	var d *daemon
	var setups []float64
	for i := 0; i < spec.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = setupDaemon(ctx, env, spec, client); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	window := time.Duration(env.seconds * float64(time.Second))
	reqs := schedule(spec, env.seed, window)
	var vars0, vars1 memVars
	if env.traced {
		if err := scrapeVars(client, d.base, &vars0); err != nil {
			return nil, err
		}
	}
	cpu0, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	outs := drive(ctx, client, d.base, reqs)
	cpu1, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	// The service's work rate per second of the machine: victims over
	// the CPU time campaignd spent, spread across its cores. Unlike
	// victims over busy wall time, it does not depend on how often the
	// schedule happened to overlap requests.
	workers := float64(runtime.NumCPU())
	cpuSec := cpu1 - cpu0
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	rigs := 0.0
	if env.traced {
		if err := scrapeVars(client, d.base, &vars1); err != nil {
			return nil, err
		}
		if rigs, err = scrapeCounter(client, d.base, "campaign_rigs_built_total"); err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("campaignd shutdown: %w", err)
	}

	// Output checks: status, a strict decode, one digest per distinct
	// body across repeats.
	rep.attempted = len(reqs)
	byBody := map[string]string{}
	var firstOf []int // index of each distinct body's first 2xx answer
	var lat, lateMs, connMs []float64
	var victims float64
	ans := make([]*answer, len(outs))
	good := 0
	for i, o := range outs {
		r := reqs[i]
		lateMs = append(lateMs, (o.dispatched-r.due).Seconds()*1000)
		connMs = append(connMs, (o.gotConn-o.dispatched).Seconds()*1000)
		ms := (o.done - r.due).Seconds() * 1000
		ok := o.err == nil && o.status/100 == 2
		var a answer
		if ok {
			var err error
			if a, err = decodeAnswer(r.path, o.body); err != nil {
				rep.fail("request %d: %v", i, err)
				ok = false
			}
			for k := range a.summaries {
				if err := checkSummary(&a.summaries[k], spec.subscribers); err != nil {
					rep.fail("request %d: %v", i, err)
					ok = false
				}
			}
		} else if o.err != nil {
			rep.fail("request %d %s: %v", i, r.path, o.err)
		} else {
			rep.fail("request %d %s: status %d: %s", i, r.path, o.status, bytes.TrimSpace(o.body))
		}
		if !ok {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms)
		if time.Duration(ms*float64(time.Millisecond)) <= spec.latencyLimit {
			good++
		}
		for _, s := range a.summaries {
			victims += float64(s.Subscribers)
		}
		ans[i] = &a
		key := string(r.body)
		if prev, seen := byBody[key]; !seen {
			byBody[key] = a.digest
			firstOf = append(firstOf, i)
		} else if prev != a.digest {
			rep.fail("request %d: same body as an earlier request, different answer (%s vs %s)", i, prev, a.digest)
		}
	}
	// A generator that falls behind its schedule no longer offers the
	// load the workload names, so its latencies do not count.
	late, err := percentile(lateMs, 0.95)
	if err != nil || late > maxSchedLateMs {
		rep.fail("generator ran late: p95 dispatch delay %.1f ms (limit %g ms, %v)", late, maxSchedLateMs, err)
	}
	for _, i := range firstOf {
		rep.digests[reqs[i].path+" "+reqs[i].name] = byBody[string(reqs[i].body)]
	}
	rep.note("schedule: %d requests (%d distinct bodies) at %.1f req/s over %.1fs; campaignd CPU %.2fs (%.0f%% of the machine); goodput %.2f req/s within %v",
		len(reqs), len(firstOf), spec.rate, window.Seconds(), cpuSec, 100*cpuSec/(workers*window.Seconds()),
		float64(good)/window.Seconds(), spec.latencyLimit)

	// Re-run a sample of distinct bodies through an in-process engine.
	pop, err := population.New(population.Config{Seed: env.seed, Size: spec.subscribers, ShardSize: spec.shardSize})
	if err != nil {
		return nil, err
	}
	if err := recheck(ctx, rep, pop, reqs, firstOf, byBody, spec.checkBodies); err != nil {
		return nil, err
	}

	if !env.traced {
		rep.setEndToEnd(median(setups), ratio(victims, cpuSec/workers), rss, lat)
		return rep, nil
	}

	m := rep.layer
	var runMs, queueMs, runs []float64
	var sums []*campaign.Summary
	for i, o := range outs {
		a := ans[i]
		if a == nil {
			continue
		}
		runMs = append(runMs, a.run.Seconds()*1000)
		queueMs = append(queueMs, (o.done-o.wrote-a.run).Seconds()*1000)
		for _, d := range a.runs {
			runs = append(runs, d.Seconds())
		}
		for k := range a.summaries {
			sums = append(sums, &a.summaries[k])
		}
	}
	for name, xs := range map[string][]float64{
		"server.run_ms": runMs, "server.queue_ms": queueMs,
	} {
		for _, q := range []float64{0.50, 0.95} {
			v, err := percentile(xs, q)
			if err != nil {
				rep.fail("%s: %v", name, err)
			}
			m[fmt.Sprintf("%s.p%d", name, int(q*100))] = v
		}
	}
	m["client.sched_late_ms.p95"] = late
	if m["client.conn_wait_ms.p95"], err = percentile(connMs, 0.95); err != nil {
		rep.fail("client.conn_wait_ms: %v", err)
	}

	// The layer calls: replay the whole population under the baseline
	// scenario, self-checked against the engine.
	table, err := buildTable()
	if err != nil {
		return nil, err
	}
	tc := newTimedCracker(table)
	lt, err := replayAndCheck(ctx, pop, batchSpec{scenarios: []campaign.Scenario{{Name: "baseline"}},
		replayShards: pop.NumShards()}, tc)
	if err != nil {
		rep.fail("%v", err)
	}
	setLayerTimes(m, lt)
	crack := setEngineLayers(m, sums, cpuSec)
	setCrackerLayers(m, tc.counts())
	m["a51.recover_share"] = ratio(crack.Seconds(), cpuSec)
	m["population.gen_share"] = ratio(lt.gen.Seconds()/float64(lt.subs)*victims, cpuSec)
	m["campaign.rigs_built"] = rigs
	m["campaign.run_s"] = median(runs)
	m["runtime.allocs_per_victim"] = ratio(vars1.Mallocs-vars0.Mallocs, victims)
	m["runtime.alloc_bytes_per_victim"] = ratio(vars1.TotalAlloc-vars0.TotalAlloc, victims)
	m["runtime.gc_cpu_frac"] = vars1.GCCPUFraction
	m["trace.victims_per_s"] = ratio(victims, cpuSec/workers)
	// The traced run adds only scrapes outside the window; the service
	// itself runs the same binary with the same flags.
	m["trace.overhead_frac"] = 0
	return rep, nil
}

// recheck re-runs up to n distinct request bodies (spread over the run)
// through an in-process engine over the same population and compares
// the stripped digests with the service's answers.
func recheck(ctx context.Context, rep *report, pop *population.Population, reqs []request, firstOf []int, byBody map[string]string, n int) error {
	if len(firstOf) == 0 {
		return nil
	}
	eng, err := campaign.New(campaign.Config{Population: pop})
	if err != nil {
		return err
	}
	step := max(len(firstOf)/n, 1)
	for k := 0; k < len(firstOf) && k/step < n; k += step {
		r := reqs[firstOf[k]]
		var got string
		switch r.path {
		case pathScenario:
			var sc campaign.Scenario
			if err := json.Unmarshal(r.body, &sc); err != nil {
				return err
			}
			s, err := eng.RunScenario(ctx, sc)
			if err != nil {
				rep.fail("in-process %s: %v", sc.Name, err)
				continue
			}
			got = summaryDigest(s)
		case pathSweep:
			var list []campaign.Scenario
			if err := json.Unmarshal(r.body, &list); err != nil {
				return err
			}
			sw, err := eng.RunSweep(ctx, list)
			if err != nil {
				rep.fail("in-process sweep: %v", err)
				continue
			}
			got = sweepDigest(sw)
		}
		if want := byBody[string(r.body)]; got != want {
			rep.fail("service answer to %s %s differs from the in-process engine: %s vs %s", r.path, r.body, want, got)
		}
	}
	return nil
}

// memVars is the slice of campaignd's /debug/vars memstats the traced
// run reads.
type memVars struct {
	Mallocs, TotalAlloc float64
	GCCPUFraction       float64
}

func scrapeVars(client *http.Client, base string, into *memVars) error {
	resp, err := client.Get(base + "/debug/vars")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var v struct {
		Memstats memVars `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return fmt.Errorf("decode /debug/vars: %w", err)
	}
	*into = v.Memstats
	return nil
}

// cpuSeconds reads the user+system CPU time of a process from
// /proc/<pid>/stat, in seconds (Linux reports it in USER_HZ = 100 ticks).
func cpuSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return (utime + stime) / 100, nil
}

// scrapeCounter reads one unlabelled counter from /metrics.
func scrapeCounter(client *http.Client, base, name string) (float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}
