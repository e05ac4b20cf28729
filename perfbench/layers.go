package main

import (
	"time"

	"github.com/actfort/actfort/internal/campaign"
)

// serviceOnly are the per-layer metrics of the query service and its
// client, which the in-process workloads never reach.
var serviceOnly = []string{
	"server.run_ms.p50", "server.run_ms.p95", "server.queue_ms.p50", "server.queue_ms.p95",
	"client.sched_late_ms.p95", "client.conn_wait_ms.p95",
}

// setLayerTimes records the replay's per-call costs.
func setLayerTimes(m map[string]float64, lt layerTimes) {
	m["population.gen_ns_per_sub"] = ratio(float64(lt.gen.Nanoseconds()), float64(lt.subs))
	m["population.bytes_per_sub"] = ratio(float64(lt.memBytes), float64(lt.subs))
	m["population.leakrec_ns_per_rec"] = ratio(float64(lt.leakRec.Nanoseconds()), float64(lt.leakRecs))
	m["socialdb.add_ns_per_rec"] = ratio(float64(lt.dbAdd.Nanoseconds()), float64(lt.leakRecs))
	m["socialdb.lookup_ns"] = ratio(float64(lt.lookup.Nanoseconds()), float64(lt.lookups))
	m["telecom.encode_ns_per_session"] = ratio(float64(lt.encode.Nanoseconds()), float64(lt.sessions))
	m["sniffer.feed_ns_per_burst"] = ratio(float64((lt.feed - lt.crack).Nanoseconds()), float64(lt.bursts))
}

// setCrackerLayers records what the timing cracker counted.
func setCrackerLayers(m map[string]float64, cc crackerCounts) {
	m["a51.recover_calls"] = float64(cc.calls)
	m["a51.samples_per_call"] = ratio(float64(cc.samples), float64(cc.calls))
	m["a51.recover_ns_per_sample"] = ratio(float64(cc.busy.Nanoseconds()), float64(cc.samples))
	m["a51.key_found_ratio"] = ratio(float64(cc.found), float64(cc.samples))
}

// setEngineLayers records the per-layer metrics the engine's summaries
// carry: the exclusive phase times per scenario run (feed without the
// crack nested inside it), the share of workerSeconds no phase covers,
// the dossier hit ratio and the sniffer's Kc-reuse and A5/3 ratios. It
// returns the total crack time.
func setEngineLayers(m map[string]float64, sums []*campaign.Summary, workerSeconds float64) time.Duration {
	ph := map[string]time.Duration{}
	var reuseHits, reuseMiss, a53, complete, intercepted, dossier int64
	for _, s := range sums {
		for _, pt := range s.PhaseTimings {
			ph[pt.Phase] += pt.Total
		}
		reuseHits += int64(s.Sniffer.KcReuseHits)
		reuseMiss += int64(s.Sniffer.KcReuseMisses)
		a53 += int64(s.Sniffer.A53Abandoned)
		complete += int64(s.Sniffer.SessionsComplete)
		intercepted += s.Intercepted
		dossier += s.DossierHits
	}
	m["socialdb.hit_ratio"] = ratio(float64(dossier), float64(intercepted))
	m["sniffer.kc_reuse_hit_ratio"] = ratio(float64(reuseHits), float64(reuseHits+reuseMiss))
	m["sniffer.a53_abandoned_frac"] = ratio(float64(a53), float64(complete))

	excl := map[string]time.Duration{
		"synth":     ph["synth"],
		"encrypt":   ph["encrypt"],
		"feed_excl": ph["feed"] - ph["crack"],
		"crack":     ph["crack"],
		"closure":   ph["closure"],
		"aggregate": ph["aggregate"],
	}
	var sum time.Duration
	for name, d := range excl {
		m["campaign.phase."+name+"_s"] = ratio(d.Seconds(), float64(len(sums)))
		sum += d
	}
	m["campaign.unattributed_frac"] = 1 - ratio(sum.Seconds(), workerSeconds)
	return ph["crack"]
}
