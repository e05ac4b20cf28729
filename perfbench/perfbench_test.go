package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/campaign"
)

// TestScheduleDeterministic pins the open-loop schedule to its seed:
// the same seed gives the same requests at the same due times, another
// seed gives another schedule.
func TestScheduleDeterministic(t *testing.T) {
	window := 20 * time.Second
	a := schedule(serviceMix, 7, window)
	b := schedule(serviceMix, 7, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from seed 7 differ")
	}
	if len(a) < 100 {
		t.Fatalf("schedule has %d requests, want about %g", len(a), serviceMix.rate*window.Seconds())
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= window {
			t.Fatalf("request %d due at %v after %v (window %v)", i, a[i].due, a[i-1].due, window)
		}
	}
	if c := schedule(serviceMix, 8, window); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 give the same schedule")
	}
	if !reflect.DeepEqual(radioEnvs(serviceMix.envs), radioEnvs(serviceMix.envs)) {
		t.Fatal("radio environment set is not fixed")
	}
}

// TestPercentileNeedsTail checks that a percentile is refused unless at
// least ten samples lie beyond it, and is the nearest-rank value when
// it is reported.
func TestPercentileNeedsTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{199, 0.95, false, 0},
		{200, 0.95, true, 190},
		{19, 0.50, false, 0},
		{20, 0.50, true, 10},
		{0, 0.50, false, 0},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok = %v", 100*tc.q, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("p%g of %d samples = %g, want %g", 100*tc.q, tc.n, got, tc.want)
		}
	}
}

// fillNonZero sets every settable field reachable from v to a non-zero
// value derived from rng.
func fillNonZero(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i), rng)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(v.Index(i), rng)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < 3; i++ {
			fillNonZero(v.Index(i), rng)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem(), rng)
	case reflect.String:
		v.SetString("s" + string(rune('a'+rng.IntN(26))))
	case reflect.Int, reflect.Int64, reflect.Int32:
		v.SetInt(1 + rng.Int64N(1000))
	case reflect.Float64:
		v.SetFloat(0.5 + rng.Float64())
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

// zeroedFields lists the top-level fields of before that strip zeroed,
// failing on any field it changed in another way.
func zeroedFields(t *testing.T, before, after reflect.Value) []string {
	t.Helper()
	var out []string
	for i := 0; i < before.NumField(); i++ {
		name := before.Type().Field(i).Name
		a := after.Field(i)
		switch {
		case reflect.DeepEqual(before.Field(i).Interface(), a.Interface()):
		case a.IsZero():
			out = append(out, name)
		default:
			out = append(out, name+"(changed)")
		}
	}
	return out
}

// TestStripKeepsCounters checks that digest stripping drops exactly the
// run-dependent fields and keeps every counter, so two answers to one
// question digest alike and any counter change shows.
func TestStripKeepsCounters(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var s campaign.Summary
	fillNonZero(reflect.ValueOf(&s).Elem(), rng)
	got := zeroedFields(t, reflect.ValueOf(s), reflect.ValueOf(stripSummary(s)))
	want := []string{"Duration", "ActiveDuration", "VictimsPerSec", "ResumeVictimsPerSec", "PhaseTimings"}
	if !slices.Equal(got, want) {
		t.Fatalf("stripSummary zeroed %v, want %v", got, want)
	}
	base := summaryDigest(&s)
	for i := 0; i < reflect.ValueOf(s).NumField(); i++ {
		name := reflect.TypeOf(s).Field(i).Name
		if slices.Contains(want, name) {
			continue
		}
		c := s
		fillNonZero(reflect.ValueOf(&c).Elem().Field(i), rand.New(rand.NewPCG(3, 4)))
		if reflect.DeepEqual(c, s) {
			continue // the redraw happened to repeat the value
		}
		if summaryDigest(&c) == base {
			t.Errorf("changing %s leaves the digest unchanged", name)
		}
	}

	var sw campaign.SweepSummary
	fillNonZero(reflect.ValueOf(&sw).Elem(), rng)
	stripped := stripSweep(sw)
	got = zeroedFields(t, reflect.ValueOf(sw), reflect.ValueOf(stripped))
	if want := []string{"RigsBuilt", "Results(changed)", "Duration"}; !slices.Equal(got, want) {
		t.Fatalf("stripSweep zeroed %v, want %v", got, want)
	}
	for i, r := range stripped.Results {
		if r.Duration != 0 || r.Scenario != sw.Results[i].Scenario || r.Error != sw.Results[i].Error {
			t.Fatalf("result %d: stripped %+v from %+v", i, r, sw.Results[i])
		}
		if !reflect.DeepEqual(*r.Summary, stripSummary(*sw.Results[i].Summary)) {
			t.Fatalf("result %d: summary not stripped like stripSummary", i)
		}
	}
	if sw.Results[0].Duration == 0 || sw.Results[0].Summary.Duration == 0 {
		t.Fatal("stripSweep modified its argument")
	}
}

// TestTimedCrackerMatchesTable checks that the timing wrapper returns
// the bare table's keys and errors, batched and scalar, timing on or
// off, and counts what it saw.
func TestTimedCrackerMatchesTable(t *testing.T) {
	space := a51.KeySpace{Base: 0xC118000000000000, Bits: 10}
	frames := a51.FrameRange(4)
	table, err := a51.BuildTable(space, a51.TableConfig{Frames: frames, ChainLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := space.Size()
	rng := rand.New(rand.NewPCG(5, 6))
	samples := make([]a51.Sample, 70)
	for i := range samples {
		frame := frames[rng.IntN(len(frames))]
		switch i % 4 {
		case 0: // unusably short
			samples[i] = a51.Sample{Keystream: []byte{1, 2}, Frame: frame}
		case 1: // junk: almost surely no key
			junk := make([]byte, 8)
			for j := range junk {
				junk[j] = byte(rng.Uint32())
			}
			samples[i] = a51.Sample{Keystream: junk, Frame: frame}
		default:
			down, _ := a51.New(space.Key(rng.Uint64N(n)), frame).KeystreamBurst()
			samples[i] = a51.Sample{Keystream: down[:8], Frame: frame}
		}
	}
	ctx := context.Background()
	wantKeys, wantErrs := table.RecoverBatch(ctx, samples, space)
	tc := newTimedCracker(table)
	for _, on := range []bool{false, true} {
		tc.on.Store(on)
		keys, errs := tc.RecoverBatch(ctx, samples, space)
		for i := range samples {
			if !errors.Is(errs[i], wantErrs[i]) || (wantErrs[i] == nil && keys[i] != wantKeys[i]) {
				t.Fatalf("on=%v sample %d: got (%x, %v), table (%x, %v)", on, i, keys[i], errs[i], wantKeys[i], wantErrs[i])
			}
			k, err := tc.Recover(ctx, samples[i].Keystream, samples[i].Frame, space)
			wk, werr := table.Recover(ctx, samples[i].Keystream, samples[i].Frame, space)
			if !errors.Is(err, werr) || (werr == nil && k != wk) {
				t.Fatalf("on=%v sample %d: Recover (%x, %v), table (%x, %v)", on, i, k, err, wk, werr)
			}
		}
	}
	found := int64(0)
	for _, err := range wantErrs {
		if err == nil {
			found++
		}
	}
	c := tc.counts()
	if want := (crackerCounts{calls: 1 + int64(len(samples)), samples: 2 * int64(len(samples)), found: 2 * found}); c.calls != want.calls || c.samples != want.samples || c.found != want.found {
		t.Fatalf("counts %+v, want calls/samples/found %d/%d/%d", c, want.calls, want.samples, want.found)
	}
	if found == 0 || found == int64(len(samples)) {
		t.Fatalf("sample mix degenerate: %d of %d found", found, len(samples))
	}
	if tc.Name() != table.Name() {
		t.Fatalf("Name %q, want the table's %q", tc.Name(), table.Name())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the metrics the program reports, by name, unit and direction.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, list := range []struct {
		name string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(list.json) != len(list.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", list.name, len(list.json), len(list.defs))
		}
		for i, d := range list.defs {
			if j := list.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", list.name, i, j, d)
			}
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}
