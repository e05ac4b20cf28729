package population

import (
	"reflect"
	"sync"
	"testing"

	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/identity"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/socialdb"
)

func testPop(t *testing.T, cfg Config) *Population {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = dataset.MustDefault()
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDeterministicPopulation is the property test pinning the
// generator: the same seed must reproduce the population byte for
// byte, across independent Population values and across shard
// generation order.
func TestDeterministicPopulation(t *testing.T) {
	cfg := Config{Seed: 11, Size: 3000, ShardSize: 256}
	a := testPop(t, cfg)
	b := testPop(t, cfg)
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("same seed, different fingerprints: %#x vs %#x", fa, fb)
	}
	if f := testPop(t, Config{Seed: 12, Size: 3000, ShardSize: 256}).Fingerprint(); f == a.Fingerprint() {
		t.Fatalf("different seed produced identical fingerprint %#x", f)
	}

	// Shard materialization must be order- and concurrency-independent.
	var wg sync.WaitGroup
	shards := make([]*Shard, a.NumShards())
	for i := a.NumShards() - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i] = a.Shard(i)
		}(i)
	}
	wg.Wait()
	for i, sh := range shards {
		want := b.Shard(i)
		if !reflect.DeepEqual(sh.Subscribers, want.Subscribers) {
			t.Fatalf("shard %d differs between generations", i)
		}
	}
}

func TestShardBounds(t *testing.T) {
	p := testPop(t, Config{Seed: 1, Size: 1000, ShardSize: 300})
	if got := p.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d want 4", got)
	}
	next := 0
	for i := 0; i < p.NumShards(); i++ {
		sh := p.Shard(i)
		if sh.Start != next {
			t.Fatalf("shard %d starts at %d want %d", i, sh.Start, next)
		}
		if len(sh.Subscribers) != sh.End-sh.Start {
			t.Fatalf("shard %d has %d subscribers for range [%d,%d)", i, len(sh.Subscribers), sh.Start, sh.End)
		}
		for j, sub := range sh.Subscribers {
			if sub.Index != sh.Start+j {
				t.Fatalf("subscriber index %d at shard offset %d (start %d)", sub.Index, j, sh.Start)
			}
		}
		next = sh.End
	}
	if next != p.Size() {
		t.Fatalf("shards cover %d of %d subscribers", next, p.Size())
	}
}

func TestSubscriberValidity(t *testing.T) {
	p := testPop(t, Config{Seed: 3, Size: 600, ShardSize: 600})
	sh := p.Shard(0)
	phones := make(map[string]bool, len(sh.Subscribers))
	numServices := p.Catalog().Len()
	for _, sub := range sh.Subscribers {
		imsi, persona, rec := p.reference(sub.Index)
		if !identity.ValidCitizenID(persona.CitizenID) {
			t.Fatalf("subscriber %d: invalid citizen ID %q", sub.Index, persona.CitizenID)
		}
		if !identity.ValidLuhn(persona.Bankcard) {
			t.Fatalf("subscriber %d: invalid bankcard %q", sub.Index, persona.Bankcard)
		}
		if len(imsi) != 15 {
			t.Fatalf("subscriber %d: IMSI %q not 15 digits", sub.Index, imsi)
		}
		if phones[persona.Phone] {
			t.Fatalf("duplicate phone %s", persona.Phone)
		}
		phones[persona.Phone] = true
		for j := numServices; j < len(sub.Enrolled)*64; j++ {
			if sub.Enrolled.Has(j) {
				t.Fatalf("subscriber %d enrolled in out-of-range service %d", sub.Index, j)
			}
		}
		if sub.Leaked {
			if rec.Phone != persona.Phone {
				t.Fatalf("leak record phone %q != persona phone %q", rec.Phone, persona.Phone)
			}
			if rec.Source == "" {
				t.Fatalf("leaked subscriber %d has no source", sub.Index)
			}
		}
	}
}

func TestLeakFractionAndEnrollment(t *testing.T) {
	p := testPop(t, Config{Seed: 5, Size: 20000, ShardSize: 5000})
	leaked, enrolled := 0, 0
	for i := 0; i < p.NumShards(); i++ {
		for _, sub := range p.Shard(i).Subscribers {
			if sub.Leaked {
				leaked++
			}
			enrolled += sub.Enrolled.Count()
		}
	}
	frac := float64(leaked) / float64(p.Size())
	if frac < 0.32 || frac > 0.38 {
		t.Errorf("leak fraction = %.3f want ~%.2f", frac, DefaultLeakFraction)
	}
	mean := float64(enrolled) / float64(p.Size())
	if mean < 6 || mean > 25 {
		t.Errorf("mean enrollment = %.1f services, outside the calibrated band", mean)
	}
}

func TestLeakFractionDisabled(t *testing.T) {
	p := testPop(t, Config{Seed: 5, Size: 500, ShardSize: 500, LeakFraction: -1})
	if n := p.Shard(0).LeakCount; n != 0 {
		t.Fatalf("negative LeakFraction leaked %d subscribers", n)
	}
	for idx := 0; idx < p.Size(); idx++ {
		if _, _, rec := p.reference(idx); rec != nil {
			t.Fatalf("negative LeakFraction: reference builder leaked subscriber %d", idx)
		}
	}
}

// TestLazyMatchesMaterialized pins the compact representation against
// the eager reference builder: every derivable attribute, the leak
// classification and the reconstructed leak records must agree byte
// for byte, and shard recycling (Release + regenerate) must not perturb
// any of it.
func TestLazyMatchesMaterialized(t *testing.T) {
	p := testPop(t, Config{Seed: 9, Size: 1200, ShardSize: 500})
	var arena slab.Slab[byte]
	var tmp []byte
	for i := 0; i < p.NumShards(); i++ {
		// Generate and immediately release once, so the compared shard
		// exercises the pooled-storage path.
		p.Shard(i).Release()
		sh := p.Shard(i)
		var want []socialdb.Record
		for j := range sh.Subscribers {
			sub := &sh.Subscribers[j]
			if sub.Index != sh.Start+j {
				t.Fatalf("shard %d sub %d: index %d", i, j, sub.Index)
			}
			imsi, persona, rec := p.reference(sub.Index)
			wantClass := LeakNone
			if rec != nil {
				wantClass = LeakWiFi
				if rec.Source == SourceBreach {
					wantClass = LeakBreach
				}
				want = append(want, *rec)
			}
			if sub.Leaked != (rec != nil) || sub.Class != wantClass {
				t.Fatalf("sub %d: Leaked=%v Class=%d, reference record %+v", sub.Index, sub.Leaked, sub.Class, rec)
			}
			enrolled := make(ServiceSet, len(sub.Enrolled))
			p.fillEnrollment(enrolled, sub.Index)
			if !reflect.DeepEqual(sub.Enrolled, enrolled) {
				t.Fatalf("sub %d: enrollment mismatch", sub.Index)
			}
			if got := string(sub.AppendIMSI(nil)); got != imsi {
				t.Fatalf("sub %d: IMSI %q != %q", sub.Index, got, imsi)
			}
			if got := string(sub.Ref.AppendPhone(nil)); got != persona.Phone {
				t.Fatalf("sub %d: phone %q != %q", sub.Index, got, persona.Phone)
			}
			if got := sub.Ref.Persona(); !reflect.DeepEqual(got, persona) {
				t.Fatalf("sub %d: persona mismatch\nlazy      %+v\nreference %+v", sub.Index, got, persona)
			}
		}
		if sh.LeakCount != len(want) {
			t.Fatalf("shard %d: LeakCount %d, reference leaks %d", i, sh.LeakCount, len(want))
		}
		var got []socialdb.Record
		got, tmp = p.AppendLeakRecords(got, sh, &arena, tmp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: AppendLeakRecords mismatch (%d vs %d records)", i, len(got), len(want))
		}
		sh.Release()
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Size: 0}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(Config{Size: 10, ShardSize: -1}); err == nil {
		t.Error("negative shard size accepted")
	}
}
