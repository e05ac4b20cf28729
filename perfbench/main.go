// Command perfbench is the repository's benchmark: one command that
// runs a named workload against the campaign engine or the campaignd
// query service, checks that every answer is correct, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, through the wrapper that builds the
// binaries into .bench_build/):
//
//	bash perfbench/run.sh --workload campaign-1m --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with the per-layer instruments on and reports those instead.
// See perfbench/README.md for the workloads, metrics and baselines.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
)

// benchDir is the benchmark's own directory under the repository root.
const benchDir = "perfbench"

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *runEnv) (*report, error){
	"campaign-1m": func(ctx context.Context, env *runEnv) (*report, error) { return runBatch(ctx, env, campaign1M) },
	"sweep-mix":   func(ctx context.Context, env *runEnv) (*report, error) { return runBatch(ctx, env, sweepMix) },
	"service-mix": func(ctx context.Context, env *runEnv) (*report, error) { return runService(ctx, env, serviceMix) },
}

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"victims_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p95_ms", "ms", "lower"},
}

// perLayer lists the metrics a traced run reports, with their units.
// Every workload reports every one; a layer the workload does not reach
// (the server and client on the in-process workloads) reads 0.
var perLayer = []metricDef{
	{"population.gen_ns_per_sub", "ns", "lower"},
	{"population.bytes_per_sub", "B", "lower"},
	{"population.leakrec_ns_per_rec", "ns", "lower"},
	{"population.gen_share", "frac", "lower"},
	{"socialdb.add_ns_per_rec", "ns", "lower"},
	{"socialdb.lookup_ns", "ns", "lower"},
	{"socialdb.hit_ratio", "frac", "higher"},
	{"telecom.encode_ns_per_session", "ns", "lower"},
	{"a51.recover_calls", "count", "lower"},
	{"a51.samples_per_call", "count", "higher"},
	{"a51.recover_ns_per_sample", "ns", "lower"},
	{"a51.recover_share", "frac", "lower"},
	{"a51.key_found_ratio", "frac", "higher"},
	{"sniffer.feed_ns_per_burst", "ns", "lower"},
	{"sniffer.kc_reuse_hit_ratio", "frac", "higher"},
	{"sniffer.a53_abandoned_frac", "frac", "lower"},
	{"campaign.phase.synth_s", "s", "lower"},
	{"campaign.phase.encrypt_s", "s", "lower"},
	{"campaign.phase.feed_excl_s", "s", "lower"},
	{"campaign.phase.crack_s", "s", "lower"},
	{"campaign.phase.closure_s", "s", "lower"},
	{"campaign.phase.aggregate_s", "s", "lower"},
	{"campaign.unattributed_frac", "frac", "lower"},
	{"campaign.rigs_built", "count", "lower"},
	{"campaign.run_s", "s", "lower"},
	{"server.run_ms.p50", "ms", "lower"},
	{"server.run_ms.p95", "ms", "lower"},
	{"server.queue_ms.p50", "ms", "lower"},
	{"server.queue_ms.p95", "ms", "lower"},
	{"client.sched_late_ms.p95", "ms", "lower"},
	{"client.conn_wait_ms.p95", "ms", "lower"},
	{"runtime.allocs_per_victim", "count", "lower"},
	{"runtime.alloc_bytes_per_victim", "B", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"trace.victims_per_s", "1/s", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
}

// metricDef names a metric, its unit and which direction is better.
type metricDef struct{ name, unit, better string }

// runEnv is one invocation's settings.
type runEnv struct {
	seed      int64
	seconds   float64
	traced    bool
	root      string // repository root
	work      string // scratch directory for this run, removed at exit
	campaignd string // campaignd binary (service-mix)
}

func (e *runEnv) file(name string) string { return filepath.Join(e.work, name) }

// report collects one run's checks and metrics.
type report struct {
	attempted, failed int
	failures          []string
	notes             []string
	digests           map[string]string
	e2e, layer        map[string]float64
}

func newReport() *report {
	return &report{digests: map[string]string{}, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// note records a line for the human-readable part of the output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// digest records an answer's digest under name and fails when an
// earlier answer under that name hashed differently.
func (r *report) digest(name, d string) {
	if prev, ok := r.digests[name]; ok && prev != d {
		r.fail("digest of %s changed within the run: %s then %s", name, prev, d)
		return
	}
	r.digests[name] = d
}

// setEndToEnd records the end-to-end metrics; the latency quantiles are
// refused (and the run failed) without enough samples.
func (r *report) setEndToEnd(setup, victimsPerSec, rssMB float64, lat []float64) {
	r.e2e["setup_s"] = setup
	r.e2e["victims_per_s"] = victimsPerSec
	r.e2e["peak_rss_mb"] = rssMB
	for _, q := range []struct {
		name string
		q    float64
	}{{"lat_p50_ms", 0.50}, {"lat_p95_ms", 0.95}} {
		v, err := percentile(lat, q.q)
		if err != nil {
			r.fail("%s: %v", q.name, err)
		}
		r.e2e[q.name] = v
	}
}

// checkDigests compares this run's digests with those an earlier run of
// the same sources (tree hash), workload and seed stored, then stores the union: the
// answers must not depend on the run.
func checkDigests(rep *report, root, workload string, seed int64, tree string) error {
	dir := filepath.Join(root, ".bench_build", benchDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", tree, workload, seed))
	stored := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &stored); err != nil {
			return fmt.Errorf("stored digests %s: %w", path, err)
		}
	}
	for name, d := range rep.digests {
		if prev, ok := stored[name]; ok && prev != d {
			rep.fail("digest of %s differs from an earlier run with seed %d: %s vs %s", name, seed, prev, d)
		}
		stored[name] = d
	}
	b, err := json.MarshalIndent(stored, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// cpuTimes are the runtime's cumulative CPU-time estimates.
type cpuTimes struct{ gc, total float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: campaign-1m, sweep-mix or service-mix")
		seed      = flag.Int64("seed", 1, "input seed: the population seed and, for service-mix, the request schedule")
		seconds   = flag.Float64("seconds", 25, "length of the timed window")
		trace     = flag.Int("trace", 0, "1 = report the per-layer metrics instead of the end-to-end ones")
		root      = flag.String("root", ".", "repository root")
		campaignd = flag.String("campaignd", "", "campaignd binary built from the same tree (service-mix)")
	)
	flag.Parse()
	correct, err := run(*workload, *seed, *seconds, *trace, *root, *campaignd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run measures one workload and prints its report; correct is false
// when any output check failed.
func run(workload string, seed int64, seconds float64, trace int, root, campaignd string) (correct bool, err error) {
	runner, ok := workloads[workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return false, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(names, ", "))
	}
	if trace != 0 && trace != 1 {
		return false, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return false, fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return false, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return false, fmt.Errorf("%s is not the repository root: %w", root, err)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	env := &runEnv{seed: seed, seconds: seconds, traced: trace == 1, root: root, work: work, campaignd: campaignd}

	tree, err := treeHash(root)
	if err != nil {
		return false, fmt.Errorf("hash sources: %w", err)
	}
	host := newHostStamp(root, tree)
	hb, _ := json.Marshal(host) // plain strings and ints always encode
	fmt.Printf("host: %s\n", hb)
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%d\n", workload, seed, seconds, trace)

	rep, err := runner(context.Background(), env)
	if err != nil {
		return false, err
	}
	if err := checkDigests(rep, root, workload, seed, tree); err != nil {
		return false, err
	}

	defs, values := endToEnd, rep.e2e
	if env.traced {
		defs, values = perLayer, rep.layer
	}
	out := resultOut{Attempted: rep.attempted, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return false, fmt.Errorf("workload %s did not measure %s", workload, d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("metric %-32s %16.6g %-5s (%s is better)\n", d.name, v, d.unit, d.better)
	}
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	names := make([]string, 0, len(rep.digests))
	for n := range rep.digests {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("digest %s %s\n", n, rep.digests[n])
	}
	for _, f := range rep.failures {
		fmt.Println("FAILED:", f)
	}
	out.Failed = min(rep.failed, rep.attempted)
	out.Correct = rep.failed == 0
	if out.Attempted < 1 {
		return false, fmt.Errorf("workload %s attempted nothing", workload)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return out.Correct, nil
}
