// Benchmark harness: one benchmark per paper table/figure (E1–E15
// name the experiment each one reproduces). Run with
//
//	go test -bench=. -benchmem .
package actfort_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/attack"
	"github.com/actfort/actfort/internal/authproc"
	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/collect"
	"github.com/actfort/actfort/internal/countermeasure"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/identity"
	"github.com/actfort/actfort/internal/mask"
	"github.com/actfort/actfort/internal/mitm"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/smsotp"
	"github.com/actfort/actfort/internal/sniffer"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
	"github.com/actfort/actfort/internal/telecom"
)

// E1 / Fig 3 — credential-factor usage measurement over the full
// catalog, both platforms.
func BenchmarkE1Fig3AuthMeasurement(b *testing.B) {
	cat := dataset.MustDefault()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = authproc.Measure(cat, ecosys.PlatformWeb)
		_ = authproc.Measure(cat, ecosys.PlatformMobile)
	}
}

// E2 — path-class shares (general/info/unique), part of Fig 3's text.
func BenchmarkE2PathClassShares(b *testing.B) {
	cat := dataset.MustDefault()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := authproc.Measure(cat, ecosys.PlatformWeb)
		_ = st.PctPaths(st.ClassCounts[ecosys.ClassGeneral])
	}
}

// E3 / Table I — post-login information exposure.
func BenchmarkE3Table1InfoExposure(b *testing.B) {
	cat := dataset.MustDefault()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = collect.Measure(cat, ecosys.PlatformWeb)
		_ = collect.Measure(cat, ecosys.PlatformMobile)
	}
}

// E4 — dependency-depth distribution (the §IV.B.1 percentages):
// TDG build + overlapping path-layer analysis per platform.
func BenchmarkE4DependencyLayers(b *testing.B) {
	cat := dataset.MustDefault()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, platform := range ecosys.AllPlatforms() {
			g, err := tdg.Build(tdg.NodesFromCatalog(cat, platform), ecosys.BaselineAttacker())
			if err != nil {
				b.Fatal(err)
			}
			_ = strategy.PathLayers(g)
		}
	}
}

// E5 / Fig 4 — the curated 44-account connection graph + DOT export.
func BenchmarkE5Fig4Graph(b *testing.B) {
	cat := dataset.MustDefault()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := dataset.Fig4Graph(cat, ecosys.BaselineAttacker())
		if err != nil {
			b.Fatal(err)
		}
		if err := g.DOT(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// E6 / Fig 5+6 — passive sniffing: one OTP over A5/1 GSM, key
// recovery included. Sub-benchmarks sweep the receiver count against a
// four-channel cell (coverage ablation).
func BenchmarkE6PassiveSniff(b *testing.B) {
	for _, receivers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("receivers=%d", receivers), func(b *testing.B) {
			net := telecom.NewNetwork(telecom.Config{
				KeySpace: a51.KeySpace{Base: 0xC118000000000000, Bits: 10},
				Seed:     7,
			})
			cell, err := net.AddCell(telecom.Cell{ID: "c", ARFCNs: []int{512, 513, 514, 515}, Cipher: telecom.CipherA51})
			if err != nil {
				b.Fatal(err)
			}
			sub, _ := net.Register("i", "+8613800000001")
			term, _ := net.NewTerminal(sub, telecom.RATGSM)
			if err := term.Attach(cell); err != nil {
				b.Fatal(err)
			}
			rig := sniffer.New(net, sniffer.Config{})
			defer rig.Stop()
			if err := rig.Tune(cell.ARFCNs[:receivers]...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.SendSMS("Google", sub.MSISDN, "G-845512 is your code"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := rig.Stats()
			b.ReportMetric(float64(st.MessagesDecoded)/float64(b.N)*100, "coverage%")
		})
	}
}

// E7 / Fig 7+10 — the complete active MitM takeover sequence, with
// and without the pre-attack A5/1 crack probe (the probe adds one
// passive key recovery to the otherwise crack-free active path).
func BenchmarkE7ActiveMitM(b *testing.B) {
	for _, probe := range []struct {
		name string
		cfg  mitm.Config
	}{
		{"probe=off", mitm.Config{}},
		{"probe=bitsliced", mitm.Config{Cracker: a51.Bitsliced{}}},
	} {
		b.Run(probe.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net := telecom.NewNetwork(telecom.Config{KeySpace: a51.KeySpace{Bits: 8}, Seed: int64(i)})
				cell, _ := net.AddCell(telecom.Cell{ID: "lbs", ARFCNs: []int{512}, Cipher: telecom.CipherA51, LTE: true})
				vs, _ := net.Register("46000111", "+8613912345678")
				victim, _ := net.NewTerminal(vs, telecom.RATLTE)
				if err := victim.Attach(cell); err != nil {
					b.Fatal(err)
				}
				as, _ := net.Register("46000222", "+8613800000222")
				attacker, _ := net.NewTerminal(as, telecom.RATGSM)
				if err := attacker.Attach(cell); err != nil {
					b.Fatal(err)
				}
				atk, _ := mitm.New(net, victim, cell, attacker, probe.cfg)
				b.StartTimer()
				if _, err := atk.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E8–E10 / §V.B — the three case studies, end to end against live
// HTTP services (plan, sniff, take over, pay).
func BenchmarkE8toE10CaseStudies(b *testing.B) {
	for _, tc := range []struct {
		name string
		num  int
	}{
		{"CaseI-direct", 1},
		{"CaseII-paypal-via-gmail", 2},
		{"CaseIII-alipay-via-ctrip", 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := attack.NewScenario(attack.ScenarioConfig{Seed: int64(i + 1), KeyBits: 10})
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				b.StartTimer()
				if _, err := s.RunCase(ctx, tc.num); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				cancel()
				s.Close()
				b.StartTimer()
			}
		})
	}
}

// E11 / Fig 11+12 — TDG generation over the full catalog.
func BenchmarkE11TDGGeneration(b *testing.B) {
	cat := dataset.MustDefault()
	nodes := tdg.NodesFromCatalog(cat)
	ap := ecosys.BaselineAttacker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tdg.Build(nodes, ap); err != nil {
			b.Fatal(err)
		}
	}
}

// E12 — the masking combining attack on inconsistently masked IDs.
func BenchmarkE12MaskCombining(b *testing.B) {
	persona := identity.NewGenerator(1).Persona(0)
	views := []string{
		mask.Apply(persona.CitizenID, ecosys.MaskSpec{Masked: true, VisiblePrefix: 6}),
		mask.Apply(persona.CitizenID, ecosys.MaskSpec{Masked: true, VisibleSuffix: 12}),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := mask.Complete(views...); !ok {
			b.Fatal("combining failed")
		}
	}
}

// E13 / Fig 8 — fortify the ecosystem and re-measure (plus the raw
// push-protocol round trip as a sub-benchmark).
func BenchmarkE13Fortification(b *testing.B) {
	cat := dataset.MustDefault()
	b.Run("evaluate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := countermeasure.Evaluate(cat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("push-roundtrip", func(b *testing.B) {
		server := countermeasure.NewAuthServer()
		dev, err := server.Register("+8613800000001")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reqID, err := server.LoginRequest("svc", "+8613800000001")
			if err != nil {
				b.Fatal(err)
			}
			if err := dev.Authorize(server, reqID); err != nil {
				b.Fatal(err)
			}
			sig, err := server.Signal(reqID)
			if err != nil {
				b.Fatal(err)
			}
			if !server.VerifySignal("svc", "+8613800000001", sig) {
				b.Fatal("signal rejected")
			}
		}
	})
}

// E14 / Fig 9 — the SMS OTP round trip over the telecom substrate.
func BenchmarkE14SMSOTPRoundTrip(b *testing.B) {
	net := telecom.NewNetwork(telecom.Config{KeySpace: a51.KeySpace{Bits: 8}, Seed: 1})
	cell, _ := net.AddCell(telecom.Cell{ID: "c", ARFCNs: []int{512}, Cipher: telecom.CipherA51})
	sub, _ := net.Register("i", "+8613800000001")
	term, _ := net.NewTerminal(sub, telecom.RATGSM)
	if err := term.Attach(cell); err != nil {
		b.Fatal(err)
	}
	otp := smsotp.New(smsotp.WithSeed(1), smsotp.WithRateLimit(1<<30, time.Minute))
	sender := &smsotp.TelecomSender{Net: net, Originator: "Svc", DisplayName: "Svc"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := otp.Issue("svc", sub.MSISDN, sender); err != nil {
			b.Fatal(err)
		}
		msg, ok := term.LastSMS()
		if !ok {
			b.Fatal("no delivery")
		}
		var code string
		for j := 0; j+6 <= len(msg.Text); j++ {
			if allDigits(msg.Text[j : j+6]) {
				code = msg.Text[j : j+6]
				break
			}
		}
		if err := otp.Verify("svc", sub.MSISDN, code); err != nil {
			b.Fatal(err)
		}
	}
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// E15 — scaling ablations: TDG build, forward closure and backward
// search as the ecosystem grows.
func BenchmarkE15Scaling(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		cat, err := dataset.Synthetic(n, 5)
		if err != nil {
			b.Fatal(err)
		}
		nodes := tdg.NodesFromCatalog(cat)
		ap := ecosys.BaselineAttacker()
		b.Run(fmt.Sprintf("tdg-build/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tdg.Build(nodes, ap); err != nil {
					b.Fatal(err)
				}
			}
		})
		g, err := tdg.Build(nodes, ap)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("closure/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := strategy.ForwardClosure(g, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("path-layers/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = strategy.PathLayers(g)
			}
		})
		target := g.Nodes()[len(g.Nodes())-1]
		b.Run(fmt.Sprintf("backward/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = strategy.FindPlan(g, target, 0)
			}
		})
	}
}

// E16 — population-scale campaign throughput: chain-reaction attacks
// over a sharded synthetic subscriber base with a bounded worker pool
// and one shared A5/1 cracker. The backend comparison at the smallest
// size shows the amortized TMTO table beating per-victim exhaustive
// search; the size sweep records victims/sec at population scale.
// The 1M size runs only with -benchtime long enough (or -bench
// explicitly); it processes a million subscribers per iteration.
func BenchmarkCampaignThroughput(b *testing.B) {
	run := func(b *testing.B, size int, backend string) {
		pop, err := population.New(population.Config{Seed: 42, Size: size})
		if err != nil {
			b.Fatal(err)
		}
		// Engine construction (TDG compilation, one-off table build)
		// is excluded: the real attack downloads the tables once.
		eng, err := campaign.New(campaign.Config{Population: pop, Backend: backend, KeyBits: 12})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum, err := eng.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if sum.VictimsCompromised == 0 {
				b.Fatal("campaign compromised nobody")
			}
		}
		b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "victims/s")
	}
	// Shared-table vs per-victim exhaustive search, same population.
	for _, backend := range []string{"table", "exhaustive"} {
		b.Run(fmt.Sprintf("subscribers=10000/backend=%s", backend), func(b *testing.B) {
			run(b, 10_000, backend)
		})
	}
	// Scale sweep on the shared-table backend.
	for _, size := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("subscribers=%d/backend=table", size), func(b *testing.B) {
			run(b, size, "table")
		})
	}
}

// E17 — fortification sweep throughput: the paper's defense
// evaluation (baseline vs fortified catalog vs A5/3 radio upgrade vs a
// budget-constrained attacker) over ONE shared population, ONE shared
// TMTO table and a pooled rig set, in a single process. The metric is
// scenario-victims/s: total (subscribers × scenarios) evaluated per
// second — the number that has to hold up when a sweep re-runs
// millions of subscribers per policy candidate. The parallel dimension
// overlaps scenarios under the same Workers-bounded shard budget; on a
// multi-core host parallel=4 beats parallel=1 whenever a single
// scenario's shard count cannot saturate the budget (results are
// byte-identical either way, so this is pure wall-clock).
func BenchmarkScenarioSweep(b *testing.B) {
	scenarios := append(campaign.DefaultSweep(),
		campaign.Scenario{Name: "budget", Budget: campaign.AttackerBudget{Receivers: 4, CellChannels: 16}})
	for _, size := range []int{10_000, 100_000} {
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("subscribers=%d/scenarios=%d/parallel=%d", size, len(scenarios), par), func(b *testing.B) {
				pop, err := population.New(population.Config{Seed: 42, Size: size})
				if err != nil {
					b.Fatal(err)
				}
				eng, err := campaign.New(campaign.Config{Population: pop, KeyBits: 12, SweepParallel: par})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sw, err := eng.RunSweep(context.Background(), scenarios)
					if err != nil {
						b.Fatal(err)
					}
					base, fort := sw.Results[0].Summary, sw.Results[1].Summary
					if fort.AccountsCompromised >= base.AccountsCompromised {
						b.Fatal("fortified catalog did not reduce takeover mass")
					}
				}
				b.StopTimer()
				total := float64(size*len(scenarios)) * float64(b.N)
				b.ReportMetric(total/b.Elapsed().Seconds(), "scenario-victims/s")
				// Per-iteration rig constructions: the pool rebuilds only
				// when the radio environment changes, so this stays near
				// workers × distinct radio signatures, not shards × scenarios.
				b.ReportMetric(float64(eng.RigsBuilt())/float64(b.N), "rigs-built/op")
			})
		}
	}
}

// Ablation: couple-size 2 vs 3 in TDG construction.
func BenchmarkAblationCoupleSize(b *testing.B) {
	cat := dataset.MustDefault()
	nodes := tdg.NodesFromCatalog(cat)
	ap := ecosys.BaselineAttacker()
	for _, k := range []int{2, 3} {
		b.Run(fmt.Sprintf("maxCouple=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tdg.Build(nodes, ap, tdg.WithMaxCoupleSize(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: A5/1 crack cost vs key-space size × search backend (the
// rainbow-table stand-in; see "Substitutions" in docs/ARCHITECTURE.md).
// "seed" is the original exhaustive search (full 228-bit burst
// generated per candidate); "table" measures the amortized post-build
// lookup cost, with the one-off precomputation excluded from the
// timer exactly as the real attack excludes the Kraken table download.
func BenchmarkAblationCrackKeyspace(b *testing.B) {
	const frame = 7
	for _, bits := range []int{8, 12, 16} {
		space := a51.KeySpace{Base: 0xC118000000000000, Bits: bits}
		n, ok := space.Size()
		if !ok {
			b.Fatal("key space too large")
		}
		kc := space.Key(n - 1) // worst case for sweeping backends
		down, _ := a51.New(kc, frame).KeystreamBurst()
		table, err := a51.BuildTable(space, a51.TableConfig{Frames: []uint32{frame}})
		if err != nil {
			b.Fatal(err)
		}
		for _, backend := range []struct {
			name string
			cr   a51.Cracker
		}{
			{"seed", a51.Exhaustive{Workers: 1, FullBurst: true}},
			{"exhaustive", a51.Exhaustive{Workers: 1}},
			{"parallel", a51.Exhaustive{}},
			{"bitsliced", a51.Bitsliced{}},
			{"table", table},
		} {
			b.Run(fmt.Sprintf("bits=%d/backend=%s", bits, backend.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := backend.cr.Recover(context.Background(), down[:8], frame, space); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
