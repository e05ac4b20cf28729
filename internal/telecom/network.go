// Package telecom simulates the cellular substrate the paper's attacks
// run against: subscribers with SIM secrets, cells with ARFCN channel
// sets and per-cell cipher policy, GSM SMS delivery as A5/1-encrypted
// radio bursts, an LTE plane that a jammer can force down to GSM
// (the downgrade step of the active MitM attack, Fig 7/10), GSM-style
// one-way authentication for location updates, and caller-ID calls.
//
// The radio is modeled as a publish/subscribe bus keyed by ARFCN:
// anything transmitted on a channel is visible to every subscribed
// receiver — exactly the property the passive sniffer exploits.
//
// Substitution note (see docs/ARCHITECTURE.md, "Substitutions"):
// session keys are drawn from a reduced a51.KeySpace so the sniffer's
// exhaustive search stands in for the real rainbow-table crack; the GSM one-way authentication
// (no network authentication to the phone) is modeled faithfully
// because it is the flaw the fake base station exploits.
//
// Batch ≡ scalar invariant: the three burst encoders — per-session
// EncodeSMSBursts, batched EncodeSMSBurstsBatch, and the pooled flat
// EncodeSMSBurstsInto — produce byte-identical bursts for the same
// sessions. The batch forms only change where cipher arithmetic runs
// (64-lane a51 passes across sessions) and where memory comes from
// (a recycled BurstBuffer slab); layout, COUNT schedule and payloads
// are the scalar encoder's, and property tests pin the equality.
package telecom

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
)

// Common errors.
var (
	ErrNoSubscriber  = errors.New("telecom: unknown subscriber")
	ErrNoCoverage    = errors.New("telecom: subscriber has no serving terminal")
	ErrUnknownCell   = errors.New("telecom: unknown cell")
	ErrAuthFailed    = errors.New("telecom: authentication failed (bad SRES)")
	ErrNoChallenge   = errors.New("telecom: no outstanding auth challenge")
	ErrDuplicateCell = errors.New("telecom: duplicate cell ID")
	ErrDuplicateSub  = errors.New("telecom: duplicate subscriber")
)

// CipherMode is the cell's over-the-air encryption policy.
type CipherMode int

const (
	// CipherA50 is no encryption — the paper notes many GSM networks
	// run without data encryption.
	CipherA50 CipherMode = iota + 1
	// CipherA51 encrypts bursts with A5/1.
	CipherA51
	// CipherA53 encrypts bursts with A5/3 (KASUMI) — the ciphering
	// upgrade fortification scenarios deploy; the rig's A5/1 crackers
	// cannot recover its session keys.
	CipherA53
)

// String names the mode.
func (m CipherMode) String() string {
	switch m {
	case CipherA50:
		return "A5/0"
	case CipherA51:
		return "A5/1"
	case CipherA53:
		return "A5/3"
	}
	return "cipher(?)"
}

// Encrypts reports whether the mode ciphers the air interface at all.
func (m CipherMode) Encrypts() bool { return m == CipherA51 || m == CipherA53 }

// Subscriber is a SIM identity in the operator's HLR.
type Subscriber struct {
	IMSI   string
	MSISDN string // the public phone number, e.g. "+8613800000042"
	// ki is the SIM secret; it never leaves the package.
	ki [16]byte
}

// Cell is one base station's coverage area. Cells are immutable after
// AddCell; mutable radio conditions (LTE jamming) live in the Network.
type Cell struct {
	ID     string
	ARFCNs []int
	Cipher CipherMode
	// LTE reports whether the cell offers an LTE plane; SMS to
	// LTE-attached terminals bypasses the GSM radio bus entirely.
	LTE bool
	// Rogue marks an attacker-operated fake base station. The
	// legitimate core network never routes traffic through it.
	Rogue bool
	// Power is the broadcast strength phones use for reselection
	// (higher wins; zero reads as a default of 10). Fake base stations
	// win victims by overpowering the legitimate cell.
	Power int
}

// effectivePower applies the default.
func (c *Cell) effectivePower() int {
	if c.Power == 0 {
		return 10
	}
	return c.Power
}

// RadioBurst is one unit of air traffic on an ARFCN. A multi-burst SMS
// transmission shares a SessionID; burst 0 is always the paging burst
// whose plaintext is predictable (the known-plaintext foothold).
type RadioBurst struct {
	ARFCN     int
	CellID    string
	Frame     uint32
	SessionID uint32
	Seq       int
	Total     int
	Encrypted bool
	// Cipher is the mode the burst was transmitted under. Real GSM
	// announces it in the clear (Ciphering Mode Command), so a passive
	// sniffer knows whether a session is crackable A5/1 or opaque A5/3
	// before spending any search effort.
	Cipher  CipherMode
	Payload []byte
	// IMSI and RAND identify the authentication context the session
	// was ciphered under. Real GSM exposes both in the clear (paging
	// identities, the authentication-request RAND), so a passive
	// sniffer may key caches on them; they are metadata, not payload.
	IMSI string
	RAND [16]byte
}

// BurstListener receives a copy of every burst on a subscribed ARFCN.
// Listeners must not block; heavy work should be handed off.
type BurstListener func(RadioBurst)

// CallEvent is an incoming circuit-switched call, carrying the caller
// ID the MitM uses to reveal the victim's MSISDN.
type CallEvent struct {
	FromMSISDN string
	ToMSISDN   string
}

// Config parameterizes a Network.
type Config struct {
	// KeySpace constrains session keys so the sniffer's exhaustive
	// crack terminates; see the package comment.
	KeySpace a51.KeySpace
	// Cipher frames follow the GSM COUNT structure (Count22): each
	// burst is keyed by its 51×26-multiframe position, and sessions
	// are scheduled so the paging burst lands on a CCCH paging block.
	// A table backend precomputed over PagingFrames() therefore covers
	// every known-plaintext burst the network ever emits.
	// ReauthEvery models operators that skip the authentication
	// procedure on session setup: a fresh RAND challenge (and hence a
	// fresh Kc) is run only every ReauthEvery-th GSM SMS session per
	// subscriber; sessions in between reuse the previous (RAND, Kc).
	// 0 or 1 re-authenticates every session. Kc reuse is a documented
	// real-world weakness — an attacker who cracked one session key
	// reads every following session until the next re-authentication —
	// and the sniffer's per-subscriber (IMSI, RAND) cache exploits it.
	ReauthEvery int
	// Seed drives all nondeterminism (RAND challenges, code session
	// IDs) for reproducible experiments.
	Seed int64
}

// DefaultConfig uses a 16-bit key space, crackable in well under a
// second on one core.
func DefaultConfig() Config {
	return Config{
		KeySpace: a51.KeySpace{Base: 0xC118000000000000, Bits: 16},
		Seed:     1,
	}
}

// Network is the operator core: HLR, cells, SMS routing and the radio
// bus. All methods are safe for concurrent use.
type Network struct {
	cfg Config

	mu          sync.Mutex
	subscribers map[string]*Subscriber // by IMSI
	byMSISDN    map[string]*Subscriber
	cells       map[string]*Cell
	serving     map[string]*Terminal // IMSI -> terminal receiving traffic
	challenges  map[string][16]byte  // IMSI -> outstanding RAND
	auth        map[string]*authCtx  // IMSI -> current SMS cipher context
	jammed      map[string]bool      // cell ID -> LTE plane jammed
	listeners   map[int]map[int]BurstListener
	nextLid     int
	frame       uint32
	nextSession uint32
	rng         *rand.Rand

	// delivered counts successful SMS deliveries, keyed by transport,
	// for the stealthiness experiments.
	delivered map[string]int
}

// NewNetwork builds an empty network.
func NewNetwork(cfg Config) *Network {
	if cfg.KeySpace.Bits <= 0 {
		cfg.KeySpace = DefaultConfig().KeySpace
	}
	return &Network{
		cfg:         cfg,
		subscribers: make(map[string]*Subscriber),
		byMSISDN:    make(map[string]*Subscriber),
		cells:       make(map[string]*Cell),
		serving:     make(map[string]*Terminal),
		challenges:  make(map[string][16]byte),
		auth:        make(map[string]*authCtx),
		jammed:      make(map[string]bool),
		listeners:   make(map[int]map[int]BurstListener),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		delivered:   make(map[string]int),
	}
}

// KeySpace exposes the configured session-key space (the sniffer needs
// it; in reality this corresponds to "A5/1 is breakable at all").
func (n *Network) KeySpace() a51.KeySpace { return n.cfg.KeySpace }

// AddCell registers a cell.
func (n *Network) AddCell(c Cell) (*Cell, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.ID == "" {
		return nil, fmt.Errorf("telecom: cell with empty ID")
	}
	if _, dup := n.cells[c.ID]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateCell, c.ID)
	}
	if len(c.ARFCNs) == 0 {
		return nil, fmt.Errorf("telecom: cell %s has no ARFCNs", c.ID)
	}
	cell := c // copy
	n.cells[c.ID] = &cell
	return &cell, nil
}

// Cell looks up a cell by ID.
func (n *Network) Cell(id string) (*Cell, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.cells[id]
	return c, ok
}

// StrongestCell returns the highest-power cell on the air — what an
// idle phone camps on after reselection. Ties break by cell ID, so
// reselection is deterministic. Rogue cells participate: broadcasting
// louder than the legitimate network is exactly the IMSI-catcher
// trick.
func (n *Network) StrongestCell() (*Cell, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var best *Cell
	for _, c := range n.cells {
		switch {
		case best == nil,
			c.effectivePower() > best.effectivePower(),
			c.effectivePower() == best.effectivePower() && c.ID < best.ID:
			best = c
		}
	}
	return best, best != nil
}

// SetLTEJammed toggles the jammer (Fig 7's "4G Jammer") over a cell's
// LTE plane; jammed cells force their terminals down to GSM.
func (n *Network) SetLTEJammed(cellID string, jammed bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.cells[cellID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownCell, cellID)
	}
	n.jammed[cellID] = jammed
	return nil
}

// IsLTEJammed reports the jammer state over a cell.
func (n *Network) IsLTEJammed(cellID string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.jammed[cellID]
}

// jammedLocked requires n.mu held.
func (n *Network) jammedLocked(cellID string) bool { return n.jammed[cellID] }

// Register creates a subscriber. The SIM secret Ki is derived from the
// network seed and IMSI, so experiments are reproducible.
func (n *Network) Register(imsi, msisdn string) (*Subscriber, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if imsi == "" || msisdn == "" {
		return nil, fmt.Errorf("telecom: empty IMSI or MSISDN")
	}
	if _, dup := n.subscribers[imsi]; dup {
		return nil, fmt.Errorf("%w: IMSI %s", ErrDuplicateSub, imsi)
	}
	if _, dup := n.byMSISDN[msisdn]; dup {
		return nil, fmt.Errorf("%w: MSISDN %s", ErrDuplicateSub, msisdn)
	}
	sub := &Subscriber{IMSI: imsi, MSISDN: msisdn, ki: kiFor(n.cfg.Seed, imsi)}
	n.subscribers[imsi] = sub
	n.byMSISDN[msisdn] = sub
	return sub, nil
}

// SubscriberByMSISDN resolves a phone number.
func (n *Network) SubscriberByMSISDN(msisdn string) (*Subscriber, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.byMSISDN[msisdn]
	return s, ok
}

// Subscribe attaches a burst listener to an ARFCN, returning a cancel
// function. This is the receiver primitive sniffers build on.
func (n *Network) Subscribe(arfcn int, fn BurstListener) (cancel func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listeners[arfcn] == nil {
		n.listeners[arfcn] = make(map[int]BurstListener)
	}
	id := n.nextLid
	n.nextLid++
	n.listeners[arfcn][id] = fn
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		delete(n.listeners[arfcn], id)
	}
}

// emit delivers a burst to listeners. Callers must NOT hold n.mu.
func (n *Network) emit(b RadioBurst) {
	n.mu.Lock()
	fns := make([]BurstListener, 0, len(n.listeners[b.ARFCN]))
	for _, fn := range n.listeners[b.ARFCN] {
		fns = append(fns, fn)
	}
	n.mu.Unlock()
	for _, fn := range fns {
		// Copy payload per listener: receivers own their bytes.
		cp := b
		cp.Payload = append([]byte(nil), b.Payload...)
		fn(cp)
	}
}

// PagingPlaintext is the predictable system-message content of burst 0
// of every SMS transmission. Its structure is public (it models GSM
// paging/system information messages), which is what makes the
// known-plaintext attack possible.
func PagingPlaintext(sessionID uint32) []byte {
	buf := make([]byte, PagingPlaintextLen)
	FillPagingPlaintext(buf, sessionID)
	return buf
}

// PagingPlaintextLen is the byte length of every paging burst payload.
const PagingPlaintextLen = burstChunk

// FillPagingPlaintext writes PagingPlaintext(sessionID) into a
// PagingPlaintextLen-sized buffer, overwriting every byte — the
// allocation-free form pooled encoders and the batch sniffer use on
// recycled slab memory (the 10 header bytes plus the 4-byte session ID
// cover the length exactly).
func FillPagingPlaintext(buf []byte, sessionID uint32) {
	copy(buf, "PAGINGREQ1")
	binary.BigEndian.PutUint32(buf[10:], sessionID)
}

// burstChunk is the payload bytes carried per burst: 14 bytes = 112
// bits fits the 114-bit A5/1 burst keystream.
const burstChunk = 14

// kiFor derives a subscriber's SIM secret from the network seed, so
// experiments are reproducible and synthesized traffic (SessionKey)
// agrees with registered subscribers. The preimage bytes are exactly
// the former fmt.Sprintf("ki|%d|%s", seed, imsi) — campaign synthesis
// runs this per auth epoch, so it is assembled without fmt's
// allocations.
func kiFor(seed int64, imsi string) [16]byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, "ki|"...)
	buf = strconv.AppendInt(buf, seed, 10)
	buf = append(buf, '|')
	buf = append(buf, imsi...)
	h := sha256.Sum256(buf)
	var ki [16]byte
	copy(ki[:], h[:16])
	return ki
}

// authCtx is the cipher context of a subscriber's GSM SMS sessions:
// the outstanding RAND, the derived Kc, and how many sessions have
// run under it (for Config.ReauthEvery).
type authCtx struct {
	rand [16]byte
	kc   uint64
	uses int
}

// smsAuthLocked returns the cipher context for the next SMS session,
// re-running the authentication procedure (fresh RAND, fresh Kc) when
// the reuse budget is exhausted. Requires n.mu held.
func (n *Network) smsAuthLocked(sub *Subscriber) *authCtx {
	ac := n.auth[sub.IMSI]
	if ac == nil || n.cfg.ReauthEvery <= 1 || ac.uses >= n.cfg.ReauthEvery {
		var rnd [16]byte
		n.rng.Read(rnd[:])
		ac = &authCtx{rand: rnd, kc: deriveKc(sub.ki, rnd, n.cfg.KeySpace)}
		n.auth[sub.IMSI] = ac
	}
	ac.uses++
	return ac
}

// deriveKc computes the session key from the SIM secret and the RAND
// challenge, confined to the configured key space (COMP128 stand-in).
func deriveKc(ki [16]byte, rnd [16]byte, space a51.KeySpace) uint64 {
	h := sha256.New()
	h.Write(ki[:])
	h.Write(rnd[:])
	sum := h.Sum(nil)
	return space.Key(binary.BigEndian.Uint64(sum[:8]))
}

// sres computes the authentication response (SRES) for a challenge.
func sres(ki [16]byte, rnd [16]byte) [4]byte {
	h := sha256.New()
	h.Write([]byte("sres"))
	h.Write(ki[:])
	h.Write(rnd[:])
	sum := h.Sum(nil)
	var out [4]byte
	copy(out[:], sum[:4])
	return out
}

// SendSMS routes a short message to the subscriber owning toMSISDN via
// that subscriber's serving terminal. Over GSM the TPDU is chunked
// into A5-protected bursts on one of the serving cell's ARFCNs; over
// (unjammed) LTE nothing touches the GSM radio bus.
//
// The returned transport is "lte", "gsm:A5/0" or "gsm:A5/1".
func (n *Network) SendSMS(fromOriginator, toMSISDN, text string) (transport string, err error) {
	n.mu.Lock()
	sub, ok := n.byMSISDN[toMSISDN]
	if !ok {
		n.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrNoSubscriber, toMSISDN)
	}
	term := n.serving[sub.IMSI]
	if term == nil {
		n.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrNoCoverage, toMSISDN)
	}
	cell, nativeRAT := term.snapshot() // lock order: n.mu -> term.mu
	if cell == nil {
		n.mu.Unlock()
		return "", fmt.Errorf("%w: %s (terminal detached)", ErrNoCoverage, toMSISDN)
	}

	tpdu := gsmcodec.Deliver{
		Originator: fromOriginator,
		Timestamp:  time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC).Add(time.Duration(n.frame) * time.Second),
		Text:       text,
	}
	// LTE path: encrypted data plane, invisible to the GSM bus. The
	// TPDU is still validated so an unencodable message errors on
	// every transport.
	if nativeRAT == RATLTE && cell.LTE && !n.jammedLocked(cell.ID) {
		if _, err := tpdu.Marshal(); err != nil {
			n.mu.Unlock()
			return "", fmt.Errorf("telecom: encode SMS: %w", err)
		}
		n.delivered["lte"]++
		n.mu.Unlock()
		term.receiveSMS(tpdu)
		return "lte", nil
	}

	// GSM path: authenticate (or reuse the cipher context), chunk,
	// encrypt per frame, emit on the air. The session is scheduled on
	// the next CCCH paging block so its known-plaintext burst lands on
	// a predictable frame class (see count.go).
	ac := n.smsAuthLocked(sub)
	sessionID := n.nextSession
	n.nextSession++
	start := NextPagingStart(n.frame)
	bursts, err := EncodeSMSBursts(SMSSession{
		ARFCN:      cell.ARFCNs[int(sessionID)%len(cell.ARFCNs)],
		CellID:     cell.ID,
		SessionID:  sessionID,
		StartFrame: start,
		Cipher:     cell.Cipher,
		Kc:         ac.kc,
		IMSI:       sub.IMSI,
		RAND:       ac.rand,
		Deliver:    tpdu,
	})
	if err != nil {
		n.mu.Unlock()
		return "", err
	}
	n.frame = start + uint32(len(bursts))
	mode := cell.Cipher
	n.delivered["gsm:"+mode.String()]++
	n.mu.Unlock()

	for _, b := range bursts {
		n.emit(b)
	}
	// The serving terminal holds Kc legitimately and receives the
	// decrypted message.
	term.receiveSMS(tpdu)
	return "gsm:" + mode.String(), nil
}

// CallFromIMSI places a circuit-switched call on behalf of the
// subscriber owning fromIMSI; the network resolves the caller ID from
// the HLR, so even a terminal that does not know "its" MSISDN exposes
// it to the callee.
func (n *Network) CallFromIMSI(fromIMSI, toMSISDN string) error {
	n.mu.Lock()
	sub, ok := n.subscribers[fromIMSI]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: IMSI %s", ErrNoSubscriber, fromIMSI)
	}
	return n.Call(sub.MSISDN, toMSISDN)
}

// Call places a circuit-switched call, delivering a CallEvent with
// caller ID to the callee's serving terminal.
func (n *Network) Call(fromMSISDN, toMSISDN string) error {
	n.mu.Lock()
	sub, ok := n.byMSISDN[toMSISDN]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSubscriber, toMSISDN)
	}
	term := n.serving[sub.IMSI]
	n.mu.Unlock()
	if term == nil {
		return fmt.Errorf("%w: %s", ErrNoCoverage, toMSISDN)
	}
	term.receiveCall(CallEvent{FromMSISDN: fromMSISDN, ToMSISDN: toMSISDN})
	return nil
}

// DeliveryStats returns a copy of per-transport delivery counters.
func (n *Network) DeliveryStats() map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]int, len(n.delivered))
	for k, v := range n.delivered {
		out[k] = v
	}
	return out
}

// ServingTerminal reports which terminal currently receives the
// subscriber's traffic (nil if none).
func (n *Network) ServingTerminal(imsi string) *Terminal {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.serving[imsi]
}

// --- GSM location-update authentication (one-way, as deployed) ---

// BeginLocationUpdate starts a location update for imsi and returns
// the RAND challenge. GSM authenticates only the phone to the network;
// the network never proves itself — the flaw fake base stations
// exploit (Fig 10).
func (n *Network) BeginLocationUpdate(imsi string) ([16]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.subscribers[imsi]; !ok {
		return [16]byte{}, fmt.Errorf("%w: %s", ErrNoSubscriber, imsi)
	}
	var rnd [16]byte
	n.rng.Read(rnd[:])
	n.challenges[imsi] = rnd
	return rnd, nil
}

// CompleteLocationUpdate verifies the SRES response and, on success,
// makes term the subscriber's serving terminal. The terminal needs no
// knowledge of Ki — exactly why a fake victim terminal relaying the
// real SIM's answer wins.
func (n *Network) CompleteLocationUpdate(imsi string, answer [4]byte, term *Terminal) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	sub, ok := n.subscribers[imsi]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSubscriber, imsi)
	}
	rnd, ok := n.challenges[imsi]
	if !ok {
		return ErrNoChallenge
	}
	delete(n.challenges, imsi)
	if sres(sub.ki, rnd) != answer {
		return ErrAuthFailed
	}
	if term == nil || term.cell == nil {
		return fmt.Errorf("telecom: cannot serve a detached terminal")
	}
	n.serving[imsi] = term
	return nil
}
