package core

// The related-work schemes the paper positions itself against (§1.7), as
// models just large enough to fill the comparison columns of
// TestAdversaryTable and the centralized-vs-decentralized ablation:
//
//   - APPLAUS (Zhu & Cao, INFOCOM'11): proofs are generated peer to peer
//     over Bluetooth, but stored on one server and checked through a
//     Central Authority that maps identities to pseudonyms;
//   - PASPORT (Nosouhi et al., IEEE TCSS 2020): the verifier assigns the
//     witness, so a prover cannot pick an accomplice, and the verifier
//     itself is trusted to act in good faith;
//   - Brambilla et al.'s peer-to-peer proof-of-location blockchain: prover
//     and witness exchange request and response over any channel, so
//     nothing binds the witness to where the prover stands (§1.7.2).
//
// Each model keeps only what a row or the ablation runs.

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/geo"
	"agnopol/internal/polcrypto"
)

// Rejections of the comparison schemes.
var (
	errOutOfRange        = errors.New("peer out of Bluetooth range")
	errNoProof           = errors.New("no stored proof places the prover there")
	errServerDown        = errors.New("applaus: central server unavailable")
	errNoWitnessNearby   = errors.New("pasport: no registered witness near the claimed area")
	errWrongWitness      = errors.New("pasport: witness is not the assigned one")
	errAssignmentExpired = errors.New("pasport: witness assignment expired")
	errDuplicate         = errors.New("brambilla: proof already on the chain")
)

// peer is a participant of any comparison scheme: a key and a device.
type peer struct {
	key *polcrypto.KeyPair
	dev *geo.Device
}

func newPeer(tb testing.TB, rng *chain.Rand, at geo.LatLng) *peer {
	tb.Helper()
	kp, err := polcrypto.GenerateKeyPair(rng)
	if err != nil {
		tb.Fatal(err)
	}
	return &peer{key: kp, dev: geo.NewDevice(at)}
}

// applausProof is APPLAUS's proof record (Fig. 1.13): both pseudonyms,
// the witness's position and the time, signed by the witness.
type applausProof struct {
	prover, witness string
	at              geo.LatLng
	time            time.Duration
	sig             []byte
}

func (p *applausProof) message() []byte {
	h := polcrypto.Hash([]byte(p.prover), []byte(p.witness), []byte(p.at.String()), []byte(p.time.String()))
	return h[:]
}

// pseudonym is a peer's APPLAUS pseudonym: its public key in hex.
func pseudonym(p *peer) string { return hex.EncodeToString(p.key.Public) }

// applausGenerate is the mutual generation: it completes only when the
// two devices are in Bluetooth range.
func applausGenerate(prover, witness *peer, now time.Duration) (applausProof, error) {
	if !prover.dev.CanReach(witness.dev) {
		return applausProof{}, errOutOfRange
	}
	p := applausProof{prover: pseudonym(prover), witness: pseudonym(witness), at: witness.dev.TruePosition, time: now}
	p.sig = witness.key.Sign(p.message())
	return p, nil
}

// applaus is the centralized architecture of Fig. 1.12: the Central
// Authority's identity→pseudonym map and registered keys, and the one
// server that stores every proof record.
type applaus struct {
	pseudonyms map[string]string
	keys       map[string]ed25519.PublicKey
	proofs     map[string][]applausProof
	down       bool
}

func newApplaus() *applaus {
	return &applaus{
		pseudonyms: make(map[string]string),
		keys:       make(map[string]ed25519.PublicKey),
		proofs:     make(map[string][]applausProof),
	}
}

// register records a user with the Central Authority.
func (a *applaus) register(identity string, p *peer) {
	a.pseudonyms[identity] = pseudonym(p)
	a.keys[pseudonym(p)] = p.key.Public
}

// upload stores a proof record on the server.
func (a *applaus) upload(p applausProof) error {
	if a.down {
		return errServerDown
	}
	a.proofs[p.prover] = append(a.proofs[p.prover], p)
	return nil
}

// verifyVisit resolves identity to its pseudonym, fetches its records
// from the server and accepts one signed by a registered witness within
// radius meters of at.
func (a *applaus) verifyVisit(identity string, at geo.LatLng, radius float64) error {
	if a.down {
		return errServerDown
	}
	for _, p := range a.proofs[a.pseudonyms[identity]] {
		key, ok := a.keys[p.witness]
		if ok && polcrypto.Verify(key, p.message(), p.sig) && geo.DistanceMeters(p.at, at) <= radius {
			return nil
		}
	}
	return errNoProof
}

// applausCheckIn registers a prover and a witness, generates their proof
// and stores it: the state a verifyVisit of "prover" reads.
func applausCheckIn(tb testing.TB, prover, witness geo.LatLng) (*applaus, error) {
	rng := chain.NewRand(5)
	a := newApplaus()
	p, w := newPeer(tb, rng, prover), newPeer(tb, rng, witness)
	a.register("prover", p)
	a.register("witness", w)
	proof, err := applausGenerate(p, w, 0)
	if err != nil {
		return nil, err
	}
	return a, a.upload(proof)
}

// pasportAssignment is PASPORT's witness assignment: prover, assigned
// witness and expiry, signed by the verifier.
type pasportAssignment struct {
	prover, witness ed25519.PublicKey
	expires         time.Duration
	sig             []byte
}

func (a *pasportAssignment) message() []byte {
	h := polcrypto.Hash(a.prover, a.witness, []byte(a.expires.String()))
	return h[:]
}

// pasportProof is the assigned witness's countersignature over the
// assignment and its own position.
type pasportProof struct {
	assignment pasportAssignment
	at         geo.LatLng
	sig        []byte
}

func (p *pasportProof) message() []byte {
	h := polcrypto.Hash(p.assignment.message(), []byte(p.at.String()))
	return h[:]
}

// pasport is the verifier: it both assigns witnesses from its registered
// pool and validates proofs.
type pasport struct {
	key       *polcrypto.KeyPair
	witnesses []*peer
}

// assign picks the registered witness nearest the prover's claimed
// position, within 100 m; the prover has no say in the choice.
func (v *pasport) assign(prover *peer, now time.Duration) (pasportAssignment, *peer, error) {
	var best *peer
	bestD := 100.0
	for _, w := range v.witnesses {
		if d := geo.DistanceMeters(w.dev.TruePosition, prover.dev.ClaimedPosition); d <= bestD {
			best, bestD = w, d
		}
	}
	if best == nil {
		return pasportAssignment{}, nil, errNoWitnessNearby
	}
	a := pasportAssignment{prover: prover.key.Public, witness: best.key.Public, expires: now + 2*time.Minute}
	a.sig = v.key.Sign(a.message())
	return a, best, nil
}

// pasportCertify is the witness's side: it countersigns only an
// assignment naming itself, for a prover in Bluetooth range.
func pasportCertify(w, prover *peer, a pasportAssignment) (pasportProof, error) {
	if !bytes.Equal(a.witness, w.key.Public) {
		return pasportProof{}, errWrongWitness
	}
	if !w.dev.CanReach(prover.dev) {
		return pasportProof{}, errOutOfRange
	}
	p := pasportProof{assignment: a, at: w.dev.TruePosition}
	p.sig = w.key.Sign(p.message())
	return p, nil
}

// validate accepts a proof whose assignment this verifier signed, still
// unexpired at now, countersigned by the assigned witness.
func (v *pasport) validate(p pasportProof, now time.Duration) error {
	if !polcrypto.Verify(v.key.Public, p.assignment.message(), p.assignment.sig) {
		return fmt.Errorf("pasport: assignment: %w", polcrypto.ErrBadSignature)
	}
	if now > p.assignment.expires {
		return errAssignmentExpired
	}
	if !polcrypto.Verify(p.assignment.witness, p.message(), p.sig) {
		return fmt.Errorf("pasport: countersignature: %w", polcrypto.ErrBadSignature)
	}
	return nil
}

// pasportWorld is a verifier whose pool holds one witness at bologna, a
// prover standing at at, and the rng that made their keys.
func pasportWorld(tb testing.TB, at geo.LatLng) (*pasport, *peer, *chain.Rand) {
	rng := chain.NewRand(20)
	prover, witness, verifier := newPeer(tb, rng, at), newPeer(tb, rng, bologna), newPeer(tb, rng, bologna)
	return &pasport{key: verifier.key, witnesses: []*peer{witness}}, prover, rng
}

// p2pResponse is Brambilla's request/response pair (Fig. 1.16): the
// prover's key and claimed position, countersigned by the witness with
// its own key and position.
type p2pResponse struct {
	prover  ed25519.PublicKey
	claimed geo.LatLng
	witness ed25519.PublicKey
	at      geo.LatLng
	sig     []byte
}

func (r *p2pResponse) message() []byte {
	h := polcrypto.Hash(r.prover, []byte(r.claimed.String()), r.witness, []byte(r.at.String()))
	return h[:]
}

// p2pExchange runs the request and the response over any direct channel:
// nothing checks that the witness is near the prover, so two colluding
// peers kilometres apart complete it.
func p2pExchange(prover, witness *peer) p2pResponse {
	r := p2pResponse{
		prover: prover.key.Public, claimed: prover.dev.ClaimedPosition,
		witness: witness.key.Public, at: witness.dev.ClaimedPosition,
	}
	r.sig = witness.key.Sign(r.message())
	return r
}

// p2pChain is the proof-of-location blockchain: submitted responses wait
// until forge appends them as a block.
type p2pChain struct {
	blocks  [][]p2pResponse
	pending []p2pResponse
	seen    map[[32]byte]bool
}

// submit checks the witness signature and that the proof is not already
// on the chain (§1.7.2) — it cannot check proximity.
func (c *p2pChain) submit(r p2pResponse) error {
	if !polcrypto.Verify(r.witness, r.message(), r.sig) {
		return fmt.Errorf("brambilla: witness signature: %w", polcrypto.ErrBadSignature)
	}
	h := polcrypto.Hash(r.message())
	if c.seen[h] {
		return errDuplicate
	}
	c.seen[h] = true
	c.pending = append(c.pending, r)
	return nil
}

func (c *p2pChain) forge() {
	c.blocks = append(c.blocks, c.pending)
	c.pending = nil
}

// proofFor accepts when a block holds a proof placing the prover's key
// within radius meters of at.
func (c *p2pChain) proofFor(prover ed25519.PublicKey, at geo.LatLng, radius float64) error {
	for _, blk := range c.blocks {
		for _, r := range blk {
			if bytes.Equal(r.prover, prover) && geo.DistanceMeters(r.claimed, at) <= radius {
				return nil
			}
		}
	}
	return errNoProof
}

// p2pCheckIn submits the prover's exchange with the witness to a new
// chain and forges it into a block.
func p2pCheckIn(prover, witness *peer) (*p2pChain, error) {
	c := &p2pChain{seen: make(map[[32]byte]bool)}
	if err := c.submit(p2pExchange(prover, witness)); err != nil {
		return nil, err
	}
	c.forge()
	return c, nil
}

// BenchmarkAblation_CentralizedVsDecentralized contrasts the two
// architectures of §1.7 at the verifier: APPLAUS's lookup on its one
// server (wall time per VerifyVisit) against this system's on-chain
// verify, whose simulated latency an Algorand attack world reports.
func BenchmarkAblation_CentralizedVsDecentralized(b *testing.B) {
	b.Run("applaus-centralized", func(b *testing.B) {
		a, err := applausCheckIn(b, bologna, geo.Offset(bologna, 2, 2))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.verifyVisit("prover", bologna, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("agnopol-decentralized", func(b *testing.B) {
		var latency time.Duration
		for i := 0; i < b.N; i++ {
			w := newAttackWorld(b, algorand.NewClient(algorand.NewChain(algorand.Testnet(), uint64(77+i))))
			p := w.prover(b, bologna)
			proof, err := w.request(b, p)
			if err != nil {
				b.Fatal(err)
			}
			ver := w.verify(b, p, proof)
			if !ver.Accepted {
				b.Fatalf("verify rejected an honest check-in: %s", ver.Reason)
			}
			latency = ver.Op.Latency
		}
		b.ReportMetric(latency.Seconds(), "verify_latency_s")
	})
}
