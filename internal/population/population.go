// Package population generates the synthetic subscriber base the
// population-scale campaign engine attacks: millions of personas, each
// with a SIM identity, a service-enrollment profile drawn from the
// calibrated ecosystem catalog, and (for a configurable fraction) a
// presence in the attacker's leaked-records databases.
//
// The generator is deterministic, seeded and sharded: subscriber i is
// a pure function of (seed, i), shards cover contiguous index ranges
// and can be materialized independently and in parallel, and nothing
// is retained between Shard calls — a campaign streams shards through
// a worker pool without ever holding the whole population in memory.
//
// A Shard is COMPACT: a subscriber is its index, an identity.Ref
// (seed + index, 16 bytes), an arena-carved enrollment bitset and two
// leak flags — no persona strings, no per-subscriber leak records, no
// shard-local leak store. Attribute bytes (IMSI, phone, name, address)
// derive on demand from the Ref's draw stream exactly when a consumer
// touches them. AppendLeakRecords rebuilds the attacker-visible dump
// rows from the same streams, and Dossier says which fields a row
// carries without building it (what the campaign's closure reads).
// Shards recycle through a pool (Release), so steady-state streaming
// allocates nothing per subscriber. An unexported eager builder
// materializes one subscriber in full; it is the reference the compact
// form is tested against and the form Fingerprint hashes.
//
// Every per-subscriber draw is Mix(seed, tag, idx, ...) under its own
// domain-separation tag. Shard generation reaches those draws through
// Streams whose (seed, tag) prefix is folded once in New, and compares
// them against integer thresholds instead of Unit floats: one splitmix
// and one integer compare per enrolled-service draw. The eager builder
// keeps the literal unit(mix(...)) < p formulas, so the fingerprint
// pins the reference, not the fast path.
//
// That purity is the invariant every batch≡scalar equivalence test
// upstream rests on: regenerating a shard yields bit-identical
// subscribers (Fingerprint pins it, versioned by FingerprintVersion),
// so two campaign runs over one seed differ only in engine mechanics,
// never in the world being attacked.
package population

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/identity"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/socialdb"
)

// DefaultShardSize batches subscribers per shard: big enough to
// amortize per-shard setup (a sniffer rig, a partial-metrics frame),
// small enough that a worker's resident set stays in cache.
const DefaultShardSize = 4096

// Config parameterizes a Population.
type Config struct {
	// Seed drives every draw; same seed, same population, bit for bit.
	Seed int64
	// Size is the subscriber count.
	Size int
	// ShardSize bounds subscribers per shard (0 = DefaultShardSize).
	ShardSize int
	// Catalog is the service ecosystem enrollments are drawn from
	// (nil = the calibrated 201-service dataset.Default catalog).
	Catalog *ecosys.Catalog
	// LeakFraction is the share of subscribers present in the leaked
	// personal-information databases of §V.A.1 (0 = DefaultLeakFraction;
	// negative = nobody leaked).
	LeakFraction float64
	// EnrollmentScale multiplies every service-adoption probability
	// (0 = 1.0). Raising it densifies the account graph per victim.
	EnrollmentScale float64
}

// DefaultLeakFraction matches the paper's observation that merged
// breach dumps cover a large minority of active phone numbers.
const DefaultLeakFraction = 0.35

// LeakClass buckets a subscriber's presence in the attacker's leak
// databases — the compact stand-in for Record.Source string
// comparisons on the campaign hot path.
type LeakClass uint8

const (
	// LeakNone marks a subscriber absent from every leak database.
	LeakNone LeakClass = iota
	// LeakBreach marks a full breach row (name and address, sometimes
	// the citizen ID) — Source "2016-breach".
	LeakBreach
	// LeakWiFi marks a phishing-WiFi harvest (phone number only) —
	// Source "phishing-wifi".
	LeakWiFi
)

// Leak record source labels (§V.A.1's two source tiers). Shared
// constants so every record of a tier aliases one canonical string.
const (
	SourceBreach = "2016-breach"
	SourceWiFi   = "phishing-wifi"
)

// Subscriber is one member of the population. Attribute bytes derive
// on demand: the IMSI through AppendIMSI, persona fields through Ref's
// accessors and leak records through AppendLeakRecords.
type Subscriber struct {
	// Index is the global subscriber index (also the persona index).
	Index int
	// Ref is the lazy persona handle (seed + index).
	Ref identity.Ref
	// Enrolled is the set of catalog services (by catalog order index)
	// the subscriber holds accounts on. The bitset is carved from the
	// shard's arena: valid until the shard is Released.
	Enrolled ServiceSet
	// Leaked reports presence in the attacker's leak databases; Class
	// refines it to the source tier.
	Leaked bool
	Class  LeakClass
}

// AppendIMSI appends the subscriber's 15-digit IMSI.
func (s *Subscriber) AppendIMSI(b []byte) []byte { return AppendIMSI(b, s.Index) }

// ServiceSet is a bitset over catalog service indices.
type ServiceSet []uint64

// Has reports membership of service index i.
func (s ServiceSet) Has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]>>(uint(i)&63)&1 == 1
}

// Count returns the number of enrolled services.
func (s ServiceSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Shard is one contiguous slice of the population.
type Shard struct {
	Index int
	// Start and End bound the subscriber index range [Start, End).
	Start, End int
	// Subscribers holds the shard's members.
	Subscribers []Subscriber
	// LeakCount is the number of leaked subscribers in the shard (phones
	// are unique per index, so it equals the record count the shard
	// contributes to a merged leak database).
	LeakCount int

	// enroll is the arena every subscriber's Enrolled bitset is carved
	// from; one block backs the whole shard and is recycled on Release.
	enroll slab.Slab[uint64]
	owner  *Population
}

// MemBytes estimates the shard's resident bytes: the subscriber slice
// plus the enrollment arena, the whole resident cost of streaming the
// shard.
func (sh *Shard) MemBytes() int {
	return cap(sh.Subscribers)*int(unsafe.Sizeof(Subscriber{})) + sh.enroll.Len()*8
}

// Release returns the shard to its population's pool for reuse by a
// later Shard call. The shard, its Subscribers and every Enrolled
// bitset are invalid afterwards. Releasing is optional — unreleased
// shards are garbage collected — but steady-state streaming (the
// campaign worker pool) recycles every shard so generation allocates
// nothing per subscriber.
func (sh *Shard) Release() {
	if sh.owner != nil {
		sh.owner.pool.Put(sh)
	}
}

// Population is a deterministic subscriber generator. Safe for
// concurrent use: all generator state is immutable after New (the
// shard pool is internally synchronized).
type Population struct {
	cfg      Config
	catalog  *ecosys.Catalog
	services []string
	adoption []float64
	gen      *identity.Generator
	words    int // enrollment bitset words per subscriber
	pool     sync.Pool

	// The shard generator's draw streams, prefixed on (seed, tag), and
	// the thresholds of adoption and LeakFraction they compare against.
	enroll, leak, leakTier, leakDeep Stream
	enrollBelow                      []uint64
	leakBelow                        uint64
}

// New validates the config and precomputes the per-service adoption
// rates. No subscribers are materialized yet.
func New(cfg Config) (*Population, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("population: size %d <= 0", cfg.Size)
	}
	if cfg.ShardSize == 0 {
		cfg.ShardSize = DefaultShardSize
	}
	if cfg.ShardSize < 0 {
		return nil, fmt.Errorf("population: shard size %d < 0", cfg.ShardSize)
	}
	if cfg.Catalog == nil {
		cat, err := dataset.Default()
		if err != nil {
			return nil, err
		}
		cfg.Catalog = cat
	}
	if cfg.LeakFraction == 0 {
		cfg.LeakFraction = DefaultLeakFraction
	}
	if cfg.EnrollmentScale == 0 {
		cfg.EnrollmentScale = 1.0
	}
	p := &Population{
		cfg:      cfg,
		catalog:  cfg.Catalog,
		gen:      identity.NewGenerator(cfg.Seed),
		adoption: adoptionRates(cfg.Catalog, cfg.EnrollmentScale),
	}
	p.words = (len(p.adoption) + 63) / 64
	seed := uint64(cfg.Seed)
	p.enroll = NewStream(seed, tagEnroll)
	p.leak = NewStream(seed, tagLeak)
	p.leakTier = NewStream(seed, tagLeakTier)
	p.leakDeep = NewStream(seed, tagLeakDeep)
	p.enrollBelow = make([]uint64, len(p.adoption))
	for j, rate := range p.adoption {
		p.enrollBelow[j] = threshold(rate)
	}
	p.leakBelow = threshold(cfg.LeakFraction)
	p.pool.New = func() any { return &Shard{owner: p} }
	for _, svc := range cfg.Catalog.Services() {
		p.services = append(p.services, svc.Name)
	}
	return p, nil
}

// Size returns the subscriber count.
func (p *Population) Size() int { return p.cfg.Size }

// Seed returns the generator seed (campaigns reuse it to key the
// telecom substrate so synthesized Kc values are reproducible).
func (p *Population) Seed() int64 { return p.cfg.Seed }

// ShardSize returns the resolved per-shard subscriber count.
func (p *Population) ShardSize() int { return p.cfg.ShardSize }

// LeakFraction returns the resolved leak fraction (negative = nobody
// leaked); campaign checkpoints pin it in the run manifest.
func (p *Population) LeakFraction() float64 { return p.cfg.LeakFraction }

// EnrollmentScale returns the resolved adoption multiplier.
func (p *Population) EnrollmentScale() float64 { return p.cfg.EnrollmentScale }

// Catalog returns the ecosystem catalog enrollments refer to.
func (p *Population) Catalog() *ecosys.Catalog { return p.catalog }

// Services returns catalog service names in enrollment-index order.
// Callers must not mutate the returned slice.
func (p *Population) Services() []string { return p.services }

// NumShards returns how many shards cover the population.
func (p *Population) NumShards() int {
	return (p.cfg.Size + p.cfg.ShardSize - 1) / p.cfg.ShardSize
}

// ShardBounds returns the index range [start, end) of shard i.
func (p *Population) ShardBounds(i int) (start, end int) {
	start = i * p.cfg.ShardSize
	end = start + p.cfg.ShardSize
	if end > p.cfg.Size {
		end = p.cfg.Size
	}
	return start, end
}

// Shard materializes shard i. Shards are independent: any subset may
// be generated, in any order, from any number of goroutines. The
// returned shard may reuse the storage of a previously Released one.
func (p *Population) Shard(i int) *Shard {
	if i < 0 || i >= p.NumShards() {
		panic(fmt.Sprintf("population: shard %d out of range [0, %d)", i, p.NumShards()))
	}
	sh := p.pool.Get().(*Shard)
	p.fill(sh, i)
	return sh
}

// fill generates shard i into sh, reusing its subscriber slice and
// enrollment arena.
func (p *Population) fill(sh *Shard, i int) {
	start, end := p.ShardBounds(i)
	n := end - start
	sh.Index, sh.Start, sh.End = i, start, end
	sh.LeakCount = 0
	sh.enroll.Reset()
	if cap(sh.Subscribers) < n {
		sh.Subscribers = make([]Subscriber, n)
	} else {
		sh.Subscribers = sh.Subscribers[:n]
	}
	for idx := start; idx < end; idx++ {
		sub := &sh.Subscribers[idx-start]
		*sub = Subscriber{
			Index: idx,
			Ref:   p.gen.Ref(idx),
		}
		sub.Enrolled = ServiceSet(sh.enroll.Grab(p.words))
		p.fillEnrollment(sub.Enrolled, idx)
		if c := p.leakClass(idx); c != LeakNone {
			sub.Leaked = true
			sub.Class = c
			sh.LeakCount++
		}
	}
}

// reference materializes subscriber idx eagerly: its IMSI, full
// persona and, when leaked, its leak record (nil otherwise). It is the
// oracle the compact Shard form is tested against and the canonical
// form Fingerprint hashes. Pure function of (seed, idx).
func (p *Population) reference(idx int) (imsi string, persona identity.Persona, rec *socialdb.Record) {
	persona = p.gen.Ref(idx).Persona()
	if c := p.referenceLeakClass(idx); c != LeakNone {
		r := p.leakRecord(idx, c, persona)
		rec = &r
	}
	return IMSIFor(idx), persona, rec
}

// breachShare is the share of leaked subscribers whose row comes from
// the full breach dump rather than a phishing-WiFi harvest.
const breachShare = 0.75

// citizenIDShare is the share of breach rows that carry the citizen ID.
const citizenIDShare = 0.40

// The tier and citizen-ID thresholds shard generation and Dossier use.
var (
	breachBelow    = threshold(breachShare)
	citizenIDBelow = threshold(citizenIDShare)
)

// leakClass draws whether subscriber idx appears in the leak databases
// and, if so, its source tier, through the prefixed streams.
func (p *Population) leakClass(idx int) LeakClass {
	i := uint64(idx)
	switch {
	case !p.leak.At(i).below(p.leakBelow):
		return LeakNone
	case p.leakTier.At(i).below(breachBelow):
		return LeakBreach
	}
	return LeakWiFi
}

// referenceLeakClass is leakClass by the literal per-draw formula, the
// oracle the eager builder and Fingerprint use.
func (p *Population) referenceLeakClass(idx int) LeakClass {
	seed := uint64(p.cfg.Seed)
	switch {
	case !(unit(mix(seed, tagLeak, uint64(idx))) < p.cfg.LeakFraction):
		return LeakNone
	case unit(mix(seed, tagLeakTier, uint64(idx))) < breachShare:
		return LeakBreach
	}
	return LeakWiFi
}

// IMSIFor maps a subscriber index to its 15-digit IMSI (MCC/MNC 46000,
// the PLMN the paper's field setup observed).
func IMSIFor(idx int) string {
	return string(AppendIMSI(make([]byte, 0, 15), idx))
}

// AppendIMSI appends the 15-digit IMSI of subscriber idx — the
// allocation-free form campaigns carve per-shard IMSI bytes with.
func AppendIMSI(b []byte, idx int) []byte {
	b = append(b, "46000"...)
	var tmp [20]byte
	d := tmp[:0]
	for v := idx; ; {
		d = append(d, byte('0'+v%10))
		v /= 10
		if v == 0 {
			break
		}
	}
	for n := len(d); n < 10; n++ {
		b = append(b, '0')
	}
	for i := len(d) - 1; i >= 0; i-- {
		b = append(b, d[i])
	}
	return b
}

// fillEnrollment overwrites set (p.words words) with the subscriber's
// service set: one independent, index-keyed draw per service, so the
// profile is order-independent and shards need no coordination. Each
// draw is one splitmix off the subscriber's enrollment prefix,
// compared against the service's threshold without a branch: both
// sides are at most 2⁵³, so h>>11 < t exactly when h>>11 - t wraps and
// sets the top bit. Bit-identical to referenceEnrollment.
func (p *Population) fillEnrollment(set ServiceSet, idx int) {
	s := p.enroll.At(uint64(idx))
	var word uint64
	for j, t := range p.enrollBelow {
		h := uint64(s.At(uint64(j)))
		word |= ((h>>11 - t) >> 63) << (uint(j) & 63)
		if j&63 == 63 {
			set[j>>6] = word
			word = 0
		}
	}
	if n := len(p.enrollBelow); n&63 != 0 {
		set[n>>6] = word
	}
}

// referenceEnrollment ORs the subscriber's service set into set by the
// literal per-service formula unit(mix(seed, tagEnroll, idx, j)) < rate:
// the oracle fillEnrollment is tested against and the form Fingerprint
// hashes.
func (p *Population) referenceEnrollment(set ServiceSet, idx int) {
	seed := uint64(p.cfg.Seed)
	for j, rate := range p.adoption {
		if unit(mix(seed, tagEnroll, uint64(idx), uint64(j))) < rate {
			set[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}

// leakRecord builds the attacker-visible dump entry of a subscriber of
// leak class c by the literal draw formulas. Two tiers mirror §V.A.1's
// sources: full breach rows (name and address, sometimes the citizen
// ID) and phishing-WiFi harvests (phone number only).
func (p *Population) leakRecord(idx int, c LeakClass, persona identity.Persona) socialdb.Record {
	seed := uint64(p.cfg.Seed)
	rec := socialdb.Record{Phone: persona.Phone}
	if c == LeakBreach {
		rec.Source = SourceBreach
		rec.RealName = persona.RealName
		rec.Address = persona.Address
		if unit(mix(seed, tagLeakDeep, uint64(idx))) < citizenIDShare {
			rec.CitizenID = persona.CitizenID
		}
	} else {
		rec.Source = SourceWiFi
	}
	return rec
}

// Dossier is what the attacker's leak databases hold on one
// subscriber: which fields of the persona its leak record carries. It
// is the compact stand-in for building the record and looking it up.
type Dossier uint8

const (
	// DossierNone: the subscriber is in no leak database.
	DossierNone Dossier = iota
	// DossierWiFi: a phishing-WiFi harvest, the phone number only.
	DossierWiFi
	// DossierBreach: a breach row with phone, real name and address.
	DossierBreach
	// DossierBreachCitizenID: a breach row that also has the citizen ID.
	DossierBreachCitizenID

	// NumDossiers is the number of Dossier values.
	NumDossiers
)

// dossierFields lists each dossier's record fields.
var dossierFields = [NumDossiers][]ecosys.InfoField{
	DossierWiFi:            {ecosys.InfoCellphone},
	DossierBreach:          {ecosys.InfoCellphone, ecosys.InfoRealName, ecosys.InfoAddress},
	DossierBreachCitizenID: {ecosys.InfoCellphone, ecosys.InfoRealName, ecosys.InfoAddress, ecosys.InfoCitizenID},
}

// Fields lists the persona fields the dossier's leak record carries
// (none for DossierNone). Callers must not mutate the returned slice.
func (d Dossier) Fields() []ecosys.InfoField { return dossierFields[d] }

// Dossier returns sub's dossier from its leak class and, for the
// breach tier, the prefixed citizen-ID draw: exactly the non-empty
// fields of the record AppendLeakRecords rebuilds for sub, with no
// record built and no database probed.
func (p *Population) Dossier(sub *Subscriber) Dossier {
	switch sub.Class {
	case LeakWiFi:
		return DossierWiFi
	case LeakBreach:
		if p.citizenIDLeaked(sub.Index) {
			return DossierBreachCitizenID
		}
		return DossierBreach
	}
	return DossierNone
}

// citizenIDLeaked draws whether breach-tier subscriber idx's row
// carries the citizen ID, through the prefixed stream.
func (p *Population) citizenIDLeaked(idx int) bool {
	return p.leakDeep.At(uint64(idx)).below(citizenIDBelow)
}

// AppendLeakRecords derives the leak-database rows of every leaked
// subscriber in sh and appends them to dst, byte-identical record for
// record to the reference builder's.
// Variable-length string fields (phone, address, citizen ID) are
// carved from arena; names and source labels resolve to interned
// vocabulary strings. The records are built to outlive the shard:
// arena must never be Reset while any returned record is retained,
// and tmp is a reusable scratch buffer (may be nil).
func (p *Population) AppendLeakRecords(dst []socialdb.Record, sh *Shard, arena *slab.Slab[byte], tmp []byte) ([]socialdb.Record, []byte) {
	for i := range sh.Subscribers {
		sub := &sh.Subscribers[i]
		if !sub.Leaked {
			continue
		}
		rec := socialdb.Record{}
		tmp = sub.Ref.AppendPhone(tmp[:0])
		rec.Phone = slab.StringOf(arena, tmp)
		if sub.Class == LeakBreach {
			rec.Source = SourceBreach
			rec.RealName = sub.Ref.RealName()
			tmp = sub.Ref.AppendAddress(tmp[:0])
			rec.Address = slab.StringOf(arena, tmp)
			if p.citizenIDLeaked(sub.Index) {
				tmp = sub.Ref.AppendCitizenID(tmp[:0])
				rec.CitizenID = slab.StringOf(arena, tmp)
			}
		} else {
			rec.Source = SourceWiFi
		}
		dst = append(dst, rec)
	}
	return dst, tmp
}

// domainAdoption is the base probability that a subscriber holds an
// account on the leading service of a domain; within a domain the
// rate decays geometrically with catalog rank (everyone has the top
// messenger, few have the fifth). The values are chosen so the mean
// enrollment lands near the paper's per-user account footprint
// (roughly a dozen services) on the calibrated 201-service catalog.
var domainAdoption = map[ecosys.Domain]float64{
	ecosys.DomainFintech:   0.52,
	ecosys.DomainEmail:     0.78,
	ecosys.DomainSocial:    0.64,
	ecosys.DomainECommerce: 0.46,
	ecosys.DomainTravel:    0.18,
	ecosys.DomainCloud:     0.30,
	ecosys.DomainNews:      0.12,
	ecosys.DomainEducation: 0.08,
	ecosys.DomainGaming:    0.16,
	ecosys.DomainHealth:    0.06,
	ecosys.DomainStreaming: 0.26,
	ecosys.DomainLifestyle: 0.22,
}

// adoptionRank is the per-rank decay within a domain.
const adoptionRank = 0.72

// adoptionFloor keeps long-tail services reachable at all.
const adoptionFloor = 0.004

// adoptionRates computes per-service adoption probabilities in
// catalog order.
func adoptionRates(cat *ecosys.Catalog, scale float64) []float64 {
	rank := make(map[ecosys.Domain]int)
	out := make([]float64, 0, cat.Len())
	for _, svc := range cat.Services() {
		base, ok := domainAdoption[svc.Domain]
		if !ok {
			base = 0.10
		}
		r := rank[svc.Domain]
		rank[svc.Domain]++
		rate := base * math.Pow(adoptionRank, float64(r))
		if rate < adoptionFloor {
			rate = adoptionFloor
		}
		rate *= scale
		if rate > 1 {
			rate = 1
		}
		out = append(out, rate)
	}
	return out
}

// AdoptionRates returns a copy of the per-service adoption
// probabilities, catalog order.
func (p *Population) AdoptionRates() []float64 {
	return append([]float64(nil), p.adoption...)
}

// FingerprintVersion identifies the generation of the persona draw
// streams folded into Fingerprint. Same seed + same version ⇒ same
// fingerprint across runs and machines; the version bumps whenever
// the draw pipeline changes the materialized bytes.
//
//	v1: per-persona math/rand sources.
//	v2: identity moved to single-word splitmix streams (seeding a
//	    rand.Source cost a 607-word table init per subscriber, ~14% of
//	    campaign CPU at 1M subscribers). Unchanged by the lazy-persona
//	    rework: lazy attribute derivation is draw-position-identical to
//	    the eager builder, so the materialized bytes never moved (the
//	    pinned-fingerprint test holds v2 digests constant).
const FingerprintVersion = 2

// Fingerprint hashes every subscriber's complete materialized state
// (identity, persona, enrollment, leak record) into one FNV-64 digest,
// prefixed with FingerprintVersion. Two populations with equal
// fingerprints are byte-identical; the determinism property test pins
// same-seed reproducibility with it. The digest covers the reference
// builder's eager form — the compact Shard representation is a
// compression of the same bytes — and is independent of shard geometry
// (subscribers hash in index order).
func (p *Population) Fingerprint() uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte{FingerprintVersion})
	buf := make([]byte, 0, 512)
	enrolled := make(ServiceSet, p.words)
	for idx := 0; idx < p.cfg.Size; idx++ {
		imsi, persona, rec := p.reference(idx)
		clear(enrolled)
		p.referenceEnrollment(enrolled, idx)
		buf = appendSubscriber(buf[:0], idx, imsi, &persona, enrolled, rec)
		_, _ = h.Write(buf)
	}
	return h.Sum64()
}

// appendSubscriber canonically serializes one fully materialized
// subscriber; rec is nil when the subscriber is not leaked.
func appendSubscriber(buf []byte, idx int, imsi string, pe *identity.Persona, enrolled ServiceSet, rec *socialdb.Record) []byte {
	appendStr := func(s string) {
		buf = append(buf, byte(len(s)>>8), byte(len(s)))
		buf = append(buf, s...)
	}
	buf = append(buf, byte(idx>>24), byte(idx>>16), byte(idx>>8), byte(idx))
	appendStr(imsi)
	appendStr(pe.RealName)
	appendStr(pe.CitizenID)
	appendStr(pe.Phone)
	appendStr(pe.Email)
	appendStr(pe.Address)
	appendStr(pe.Bankcard)
	appendStr(pe.UserID)
	appendStr(pe.StudentID)
	appendStr(pe.DeviceType)
	for _, a := range pe.Acquaintances {
		appendStr(a)
	}
	for _, ph := range pe.Photos {
		appendStr(ph)
	}
	for _, w := range enrolled {
		for s := 56; s >= 0; s -= 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	if rec != nil {
		buf = append(buf, 1)
		appendStr(rec.Phone)
		appendStr(rec.RealName)
		appendStr(rec.Address)
		appendStr(rec.CitizenID)
		appendStr(rec.Source)
	} else {
		buf = append(buf, 0)
	}
	return buf
}
