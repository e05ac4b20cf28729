package population

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/socialdb"
)

// TestStreamMatchesMix pins the prefix identity the shard generator
// rests on: extending a (seed, tag) Stream by index values equals the
// variadic Mix over the same values.
func TestStreamMatchesMix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		seed, tag, idx, j := rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()
		s := NewStream(seed, tag)
		if got, want := uint64(s), Mix(seed, tag); got != want {
			t.Fatalf("NewStream(%#x, %#x) = %#x, Mix = %#x", seed, tag, got, want)
		}
		if got, want := uint64(s.At(idx)), Mix(seed, tag, idx); got != want {
			t.Fatalf("At(idx) = %#x, Mix = %#x", got, want)
		}
		if got, want := uint64(s.At(idx).At(j)), Mix(seed, tag, idx, j); got != want {
			t.Fatalf("At(idx).At(j) = %#x, Mix = %#x", got, want)
		}
	}
}

// TestThresholdExact checks below(threshold(p)) against Unit(h) < p on
// both sides of every bound: the draws just below, at and just above
// the threshold, plus the extremes, for edge-case and random p.
func TestThresholdExact(t *testing.T) {
	const one = uint64(1) << 53
	ps := []float64{
		math.Inf(-1), -1, -0x1p-60, 0, math.SmallestNonzeroFloat64, 1e-300,
		0x1p-54, 0x1p-53, 3 * 0x1p-54, 0.004, 0.1, 1.0 / 3, 0.4, 0.5, 0.75,
		1 - 0x1p-53, 1 - 0x1p-54, 1, 1 + 0x1p-52, 1.5, math.Inf(1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		ps = append(ps, rng.Float64(), float64(rng.Int63n(int64(one)))/float64(one))
	}
	for _, p := range ps {
		th := threshold(p)
		if th > one {
			t.Fatalf("threshold(%v) = %d > 2^53", p, th)
		}
		for _, x := range []uint64{0, 1, th - 2, th - 1, th, th + 1, one - 1} {
			if x >= one {
				continue // wrapped below 0 or past the draw range
			}
			h := x<<11 | rng.Uint64()&(1<<11-1)
			if got, want := Stream(h).below(th), Unit(h) < p; got != want {
				t.Fatalf("p=%v threshold %d draw %d: below = %v, Unit(h) < p = %v", p, th, x, got, want)
			}
		}
	}
}

// TestEnrollmentMatchesReference holds shard generation to the literal
// per-draw formulas over the configurations that stress the fast path:
// zero, negative and extreme seeds; an adoption scale so small no
// threshold reaches 1 and one so large every rate clamps to 1;
// catalogs that end inside, exactly on and just past a bitset word;
// and leak fractions that disable, default or saturate the leak draw.
// Enrollment must equal referenceEnrollment bit for bit (including
// the unused high bits of the last word), Leaked/Class must equal the
// reference leak draw, the harvested leak records must equal the eager
// builder's, and Dossier must name exactly the reference record's
// non-empty fields.
func TestEnrollmentMatchesReference(t *testing.T) {
	seeds := []int64{0, -1, math.MinInt64, math.MaxInt64}
	scales := []float64{1e-9, 1, 1e9}
	sizes := []int{1, 63, 64, 65, 201}
	leaks := []float64{-1, 0, 1, 2.5}
	var arena slab.Slab[byte]
	var tmp []byte
	big, err := dataset.Synthetic(201, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sizes {
		// Synthetic adds its mail providers to the requested count, so
		// exact sizes come from a prefix of one larger catalog.
		cat, err := ecosys.NewCatalog(big.CloneSpecs()[:n])
		if err != nil {
			t.Fatal(err)
		}
		if cat.Len() != n {
			t.Fatalf("catalog has %d services, want %d", cat.Len(), n)
		}
		for _, seed := range seeds {
			for _, scale := range scales {
				for _, lf := range leaks {
					name := fmt.Sprintf("services=%d/seed=%d/scale=%g/leak=%g", n, seed, scale, lf)
					p, err := New(Config{Seed: seed, Size: 150, ShardSize: 64, Catalog: cat, EnrollmentScale: scale, LeakFraction: lf})
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < p.NumShards(); i++ {
						sh := p.Shard(i)
						var want []socialdb.Record
						for j := range sh.Subscribers {
							sub := &sh.Subscribers[j]
							ref := make(ServiceSet, p.words)
							p.referenceEnrollment(ref, sub.Index)
							if !reflect.DeepEqual(sub.Enrolled, ref) {
								t.Fatalf("%s: sub %d enrollment %x, reference %x", name, sub.Index, []uint64(sub.Enrolled), []uint64(ref))
							}
							c := p.referenceLeakClass(sub.Index)
							if sub.Class != c || sub.Leaked != (c != LeakNone) {
								t.Fatalf("%s: sub %d Leaked=%v Class=%d, reference class %d", name, sub.Index, sub.Leaked, sub.Class, c)
							}
							_, _, rec := p.reference(sub.Index)
							if rec != nil {
								want = append(want, *rec)
							}
							if got, want := p.Dossier(sub).Fields(), recordFields(rec); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: sub %d dossier fields %v, reference record has %v", name, sub.Index, got, want)
							}
						}
						var got []socialdb.Record
						got, tmp = p.AppendLeakRecords(got, sh, &arena, tmp)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: shard %d leak records differ from the reference builder's", name, i)
						}
						sh.Release()
					}
				}
			}
		}
	}
}

// recordFields lists rec's non-empty persona fields in the order
// Dossier.Fields uses (nil for a subscriber with no record).
func recordFields(rec *socialdb.Record) []ecosys.InfoField {
	if rec == nil {
		return nil
	}
	var out []ecosys.InfoField
	for _, f := range []struct {
		v     string
		field ecosys.InfoField
	}{
		{rec.Phone, ecosys.InfoCellphone},
		{rec.RealName, ecosys.InfoRealName},
		{rec.Address, ecosys.InfoAddress},
		{rec.CitizenID, ecosys.InfoCitizenID},
	} {
		if f.v != "" {
			out = append(out, f.field)
		}
	}
	return out
}

// BenchmarkShardGenerate is the generation layer's row: it cycles
// Shard(i).Release() over a 1M-subscriber population (default shard
// size, calibrated catalog) and reports ns per subscriber. The shard
// pool is warmed first, so steady-state generation must report 0
// allocs/op.
func BenchmarkShardGenerate(b *testing.B) {
	p, err := New(Config{Seed: 1, Size: 1_000_000, Catalog: dataset.MustDefault()})
	if err != nil {
		b.Fatal(err)
	}
	p.Shard(0).Release()
	b.ReportAllocs()
	b.ResetTimer()
	subs := 0
	for i := 0; i < b.N; i++ {
		sh := p.Shard(i % p.NumShards())
		subs += len(sh.Subscribers)
		sh.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(subs), "ns/sub")
}
