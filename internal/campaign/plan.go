package campaign

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/tdg"
	"github.com/actfort/actfort/internal/telecom"
)

// attackPlan is the campaign's precompiled view of the ecosystem: the
// Transformation Dependency Graph flattened into dense integer-indexed
// tables so the chain-reaction closure of 64 victims costs a few
// passes of word operations instead of a graph build per victim. It
// is computed once per (policy, platform) and shared read-only by
// every worker.
type attackPlan struct {
	// accounts lists every presence in node order.
	accounts []ecosys.AccountID
	// svcIdx maps an account to its catalog service index (the same
	// order population.ServiceSet uses).
	svcIdx []int
	// words is the length of a victim's enrollment bitset: one word per
	// 64 catalog services.
	words int
	// exposes is the per-account post-login information bitmask
	// (1 << InfoField).
	exposes []uint32
	// paths holds, per account, every takeover path that could ever
	// fall: baseline-satisfiable paths have no needs; paths demanding
	// unphishable factors are dropped at build time.
	paths [][]pathReq
	// The needs' supplier lists are interned into supplier sets: the
	// needs of one factor mostly share their suppliers, so a closure
	// layer updates each distinct set once per account that fell in it,
	// not once per need. numSets counts the sets and inSets lists, per
	// account, the sets it belongs to.
	numSets int
	inSets  [][]int32
	// baseline is the attacker-profile factor bitmask (PN + SC).
	baseline uint64
	// know is, per victim dossier, the baseline plus the factors the
	// dossier's leaked fields supply.
	know [population.NumDossiers]uint64
}

// pathReq is one compiled takeover path.
type pathReq struct {
	// needs lists the factors beyond the baseline profile, each with
	// the accounts able to supply it.
	needs []factorNeed
}

// factorNeed is one missing factor and its suppliers.
type factorNeed struct {
	// factor is the FactorKind, the bit position in the know masks.
	factor uint8
	// set is the need's interned supplier set.
	set int32
}

// factorBit maps a factor kind to its mask bit.
func factorBit(f ecosys.FactorKind) uint64 { return 1 << uint(f) }

// factorMaskOf folds a factor set into a bitmask.
func factorMaskOf(s ecosys.FactorSet) uint64 {
	var m uint64
	for _, f := range s.Sorted() {
		m |= factorBit(f)
	}
	return m
}

// buildPlan compiles the catalog into the dense tables.
func buildPlan(cat *ecosys.Catalog, platforms []ecosys.Platform) (*attackPlan, error) {
	nodes := tdg.NodesFromCatalog(cat, platforms...)
	g, err := tdg.Build(nodes, ecosys.BaselineAttacker())
	if err != nil {
		return nil, err
	}

	svcIndex := make(map[string]int, cat.Len())
	for i, svc := range cat.Services() {
		svcIndex[svc.Name] = i
	}

	p := &attackPlan{
		accounts: make([]ecosys.AccountID, 0, len(nodes)),
		svcIdx:   make([]int, 0, len(nodes)),
		words:    (cat.Len() + 63) / 64,
		exposes:  make([]uint32, 0, len(nodes)),
		paths:    make([][]pathReq, len(nodes)),
		inSets:   make([][]int32, len(nodes)),
		baseline: factorMaskOf(ecosys.BaselineAttacker().Factors()),
	}
	acctIndex := make(map[ecosys.AccountID]int32, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		si, ok := svcIndex[n.ID.Service]
		if !ok {
			return nil, fmt.Errorf("campaign: node %s not in catalog", n.ID)
		}
		acctIndex[n.ID] = int32(i)
		p.accounts = append(p.accounts, n.ID)
		p.svcIdx = append(p.svcIdx, si)
		var mask uint32
		for f := range n.Exposes {
			if n.Exposes[f] {
				mask |= 1 << uint(f)
			}
		}
		p.exposes = append(p.exposes, mask)
	}

	setIndex := make(map[string]int32)
	for i := range nodes {
		n := &nodes[i]
	pathLoop:
		for _, path := range n.Paths {
			if path.Purpose != ecosys.PurposeSignIn && path.Purpose != ecosys.PurposeReset {
				continue // only takeover paths propagate the chain
			}
			var req pathReq
			seen := uint64(0)
			for _, f := range path.Factors {
				bit := factorBit(f)
				if p.baseline&bit != 0 || seen&bit != 0 {
					continue
				}
				seen |= bit
				if f.Unphishable() {
					// Neither harvested information nor leak dossiers
					// supply biometrics/U2F: the path never falls.
					continue pathLoop
				}
				var sup []int32
				for _, from := range g.Suppliers(n.ID, f) {
					sup = append(sup, acctIndex[from])
				}
				slices.Sort(sup)
				key := fmt.Sprint(sup)
				set, ok := setIndex[key]
				if !ok {
					set = int32(p.numSets)
					p.numSets++
					setIndex[key] = set
					for _, a := range sup {
						p.inSets[a] = append(p.inSets[a], set)
					}
				}
				req.needs = append(req.needs, factorNeed{factor: uint8(f), set: set})
			}
			p.paths[i] = append(p.paths[i], req)
		}
	}
	for d := range p.know {
		p.know[d] = p.baseline
		for _, f := range population.Dossier(d).Fields() {
			if k, ok := f.Factor(); ok {
				p.know[d] |= factorBit(k)
			}
		}
	}
	return p, nil
}

// scratch is one worker's reusable state: the lane group the
// chain-reaction closure runs on, the per-shard radio session buffer
// the gather-then-encrypt path fills before the batch encryptor runs,
// the per-shard coverage and interception marks, and the pooled burst
// buffer the encoded trace lives in. All of it is recycled shard over
// shard (and, for the burst buffer, scenario over scenario), so a
// steady-state shard attack allocates nothing population-proportional.
type scratch struct {
	lanes       lanes
	radio       []telecom.SMSSession
	covered     []bool
	intercepted []bool
	bursts      *telecom.BurstBuffer

	// Lazy-persona working set. phone is the attribute-derivation
	// scratch buffer (IMSIs); strs is the shard-cycle string arena
	// (per-shard IMSIs — reset at each shard's start, after releaseRig
	// has cleared the rig caches that saw the previous shard's carves).
	phone []byte
	strs  slab.Slab[byte]
}

func newScratch(p *attackPlan) *scratch {
	return &scratch{
		lanes:  newLanes(p),
		bursts: telecom.AcquireBurstBuffer(),
	}
}

// release returns the scratch's pooled resources; the scratch must not
// be used afterwards.
func (s *scratch) release() {
	s.bursts.Release()
	s.bursts = nil
}

// boolScratch returns a zeroed length-n bool slice, reusing s's
// storage when it is large enough.
func boolScratch(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// lanes is one group of up to 64 victims for the bit-parallel chain
// closure: victim l is bit l of every mask. rows holds each lane's
// enrollment words until start transposes them into per-service lane
// masks. Per account, enrolled holds the lanes holding the account and
// fell the lanes where it has fallen; per factor kind, know holds the
// lanes whose attacker has the factor without a takeover (the baseline
// bits are never read: compiled needs exclude them); per supplier set,
// supplied holds the lanes where some member has fallen. live lists
// the accounts some lane holds, pending those of them that have paths
// and may still fall, and fallen the accounts the current layer took
// with their newly fallen lanes.
type lanes struct {
	n        int
	rows     [][64]uint64
	enrolled []uint64
	fell     []uint64
	know     [64]uint64
	supplied []uint64
	live     []int32
	pending  []int32
	fallen   []laneFall
}

// laneFall is one account's newly fallen lanes in a layer.
type laneFall struct {
	a     int32
	lanes uint64
}

func newLanes(p *attackPlan) lanes {
	return lanes{
		rows:     make([][64]uint64, p.words),
		enrolled: make([]uint64, len(p.accounts)),
		fell:     make([]uint64, len(p.accounts)),
		supplied: make([]uint64, p.numSets),
		live:     make([]int32, 0, len(p.accounts)),
		pending:  make([]int32, 0, len(p.accounts)),
		fallen:   make([]laneFall, 0, len(p.accounts)),
	}
}

// addLane puts one victim in the group's next lane: its enrolled
// services and the factors its attacker knows up front. The group must
// have fewer than 64 lanes.
func (p *attackPlan) addLane(g *lanes, enrolled population.ServiceSet, know uint64) {
	bit := uint64(1) << uint(g.n)
	for w := range g.rows {
		if w < len(enrolled) {
			g.rows[w][g.n] = enrolled[w]
		}
	}
	g.n++
	for k := know &^ p.baseline; k != 0; k &= k - 1 {
		g.know[bits.TrailingZeros64(k)] |= bit
	}
}

// start readies a filled group for its first layer: one 64×64 bit
// transpose per enrollment word turns the lanes' rows into per-service
// lane masks, each account takes its service's mask, and the accounts
// some lane holds become live (and pending when they have paths).
func (p *attackPlan) start(g *lanes) {
	for w := range g.rows {
		transpose64(&g.rows[w])
	}
	for a, j := range p.svcIdx {
		e := g.rows[j>>6][j&63]
		g.enrolled[a] = e
		if e == 0 {
			continue
		}
		g.live = append(g.live, int32(a))
		if len(p.paths[a]) > 0 {
			g.pending = append(g.pending, int32(a))
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place: afterwards bit c
// of a[r] is what bit r of a[c] was. Each round swaps the off-diagonal
// blocks of every 2j×2j block (Hacker's Delight §7-3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j, m = j>>1, m^m<<(j>>1) {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}

// layer advances the group's closure by one layer: with F the fell
// masks after layer d, an account falls in lane l at layer d+1 when
// the lane holds it, it has not fallen, and one of its paths has every
// need either known up front or supplied by an account fallen in F:
//
//	F'[a] = F[a] | (E[a] &^ F[a] & ⋁_paths ⋀_needs (K[need] | ⋁_suppliers F[s]))
//
// The supplier sets fold the layer's falls in only after every
// account is evaluated, so a layer-(d+1) fall never feeds another in
// the same layer and the layer at which a lane first holds an account
// fallen is the account's minimal chain depth there — the depth
// strategy.AccountDepths computes. layer returns the number of (lane,
// account) pairs that fell and the lanes in which any did; zero means
// the closure is at its fixpoint.
func (p *attackPlan) layer(g *lanes) (fell int64, anyFell uint64) {
	keep := g.pending[:0]
	g.fallen = g.fallen[:0]
	for _, a := range g.pending {
		open := g.enrolled[a] &^ g.fell[a]
		var sat uint64
		for _, path := range p.paths[a] {
			m := open
			for _, nd := range path.needs {
				m &= g.know[nd.factor] | g.supplied[nd.set]
			}
			sat |= m
		}
		if sat != 0 {
			g.fell[a] |= sat
			fell += int64(bits.OnesCount64(sat))
			anyFell |= sat
			g.fallen = append(g.fallen, laneFall{a, sat})
		}
		if sat != open {
			keep = append(keep, a)
		}
	}
	g.pending = keep
	for _, f := range g.fallen {
		for _, s := range p.inSets[f.a] {
			g.supplied[s] |= f.lanes
		}
	}
	return fell, anyFell
}

// closeGroup runs the group's closure to its fixpoint, folds the
// outcome into part and empties the group. Layers past MaxDepth share
// the terminal depth bucket.
func (p *attackPlan) closeGroup(g *lanes, part *Summary) {
	p.start(g)
	// deepest[d] holds the lanes in which some account fell at depth d.
	var deepest [MaxDepth + 1]uint64
	for d := 1; ; d++ {
		fell, anyFell := p.layer(g)
		if fell == 0 {
			break
		}
		d := min(d, MaxDepth)
		part.AccountsByDepth[d] += fell
		deepest[d] |= anyFell
	}
	var compromised uint64
	for d := MaxDepth; d >= 1; d-- {
		part.VictimsByMaxDepth[d] += int64(bits.OnesCount64(deepest[d] &^ compromised))
		compromised |= deepest[d]
	}
	part.VictimsCompromised += int64(bits.OnesCount64(compromised))

	// fields[f] holds the lanes whose fallen accounts expose field f.
	var fields [32]uint64
	for _, a := range g.live {
		f := g.fell[a]
		if f == 0 {
			continue
		}
		n := int64(bits.OnesCount64(f))
		part.AccountsCompromised += n
		part.ServiceTakeovers[p.svcIdx[a]] += n
		for e := p.exposes[a]; e != 0; e &= e - 1 {
			fields[bits.TrailingZeros32(e)] |= f
		}
	}
	for f := 1; f < len(part.FieldTotals); f++ {
		part.FieldTotals[f] += int64(bits.OnesCount64(fields[f]))
	}
	// The harvest histogram is the one per-lane count: how many fields
	// each victim's fallen accounts expose between them, summed over
	// the fields some lane harvested.
	harvested := fields[:0]
	for _, m := range fields {
		if m != 0 {
			harvested = append(harvested, m)
		}
	}
	for l := 0; l < g.n; l++ {
		n := 0
		for _, m := range harvested {
			n += int(m >> uint(l) & 1)
		}
		part.HarvestHist[min(n, len(part.HarvestHist)-1)]++
	}
	g.reset()
}

// reset empties the group for its next 64 victims.
func (g *lanes) reset() {
	for _, a := range g.live {
		g.fell[a] = 0
	}
	clear(g.rows)
	clear(g.supplied)
	g.live = g.live[:0]
	g.pending = g.pending[:0]
	g.know = [64]uint64{}
	g.n = 0
}
