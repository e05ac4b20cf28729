package strategy

import (
	"fmt"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// ForwardClosureIndexed computes the same fixpoint as ForwardClosure
// with a factor-indexed frontier: instead of rescanning every account
// each round, it re-examines only accounts whose unmet factors just
// became available. Results are identical (property-tested); the pair
// is an ablation — BenchmarkClosureRescan vs BenchmarkClosureIndexed
// compares them.
func ForwardClosureIndexed(g *tdg.Graph, initial []ecosys.AccountID) (*ForwardResult, error) {
	res := &ForwardResult{
		Compromised: make(map[ecosys.AccountID]Compromise),
		FinalInfo:   make(ecosys.InfoSet),
	}
	ap := g.Profile()
	for f := range ap.KnownInfo {
		res.FinalInfo.Add(f)
	}

	controlled := make(map[string]bool)
	for _, id := range initial {
		node, ok := g.Node(id)
		if !ok {
			return nil, fmt.Errorf("strategy: initial account %s not in graph", id)
		}
		res.Compromised[id] = Compromise{Round: 0}
		controlled[id.Service] = true
		for f := range node.Exposes {
			res.FinalInfo.Add(f)
		}
	}

	// Index: factor -> accounts with a takeover path needing it;
	// service name -> accounts bound to it or hosted by it.
	byFactor := make(map[ecosys.FactorKind][]ecosys.AccountID)
	byService := make(map[string][]ecosys.AccountID)
	for _, id := range g.Nodes() {
		node, _ := g.Node(id)
		seenF := make(map[ecosys.FactorKind]bool)
		seenS := make(map[string]bool)
		for _, p := range takeoverOf(node) {
			for _, f := range p.Factors {
				switch f {
				case ecosys.FactorLinkedAccount:
					for _, b := range node.BoundTo {
						if !seenS[b] {
							seenS[b] = true
							byService[b] = append(byService[b], id)
						}
					}
				case ecosys.FactorEmailCode, ecosys.FactorEmailLink:
					if node.EmailProvider != "" && !seenS[node.EmailProvider] {
						seenS[node.EmailProvider] = true
						byService[node.EmailProvider] = append(byService[node.EmailProvider], id)
					}
				default:
					if !seenF[f] {
						seenF[f] = true
						byFactor[f] = append(byFactor[f], id)
					}
				}
			}
		}
	}

	// Work list: start from everything (round 1 examines all), then
	// only woken accounts.
	inQueue := make(map[ecosys.AccountID]bool, g.Len())
	queue := make([]ecosys.AccountID, 0, g.Len())
	enqueue := func(id ecosys.AccountID) {
		if _, done := res.Compromised[id]; done {
			return
		}
		if !inQueue[id] {
			inQueue[id] = true
			queue = append(queue, id)
		}
	}
	for _, id := range g.Nodes() {
		enqueue(id)
	}

	round := 0
	for len(queue) > 0 {
		round++
		current := queue
		queue = nil
		inQueue = make(map[ecosys.AccountID]bool)

		available := ap.Capabilities.Union(res.FinalInfo.Factors())
		var fell []ecosys.AccountID
		newInfo := make(ecosys.InfoSet)
		for _, id := range current {
			if _, done := res.Compromised[id]; done {
				continue
			}
			node, _ := g.Node(id)
			pathID, usedCouple, ok := satisfiablePath(node, ap.Capabilities, available, controlled)
			if !ok {
				continue
			}
			res.Compromised[id] = Compromise{Round: round, PathID: pathID, UsedCouple: usedCouple}
			fell = append(fell, id)
			for f := range node.Exposes {
				newInfo.Add(f)
			}
		}
		if len(fell) == 0 {
			break
		}
		res.Rounds = append(res.Rounds, fell)

		// Wake dependents of the newly available capabilities.
		for _, id := range fell {
			controlled[id.Service] = true
			for _, dep := range byService[id.Service] {
				enqueue(dep)
			}
		}
		for f := range newInfo {
			if res.FinalInfo.Has(f) {
				continue
			}
			res.FinalInfo.Add(f)
			if k, ok := f.Factor(); ok {
				for _, dep := range byFactor[k] {
					enqueue(dep)
				}
			}
		}
	}

	for _, id := range g.Nodes() {
		if _, done := res.Compromised[id]; !done {
			res.Survivors = append(res.Survivors, id)
		}
	}
	return res, nil
}
