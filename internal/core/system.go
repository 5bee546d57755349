package core

import (
	"crypto/ed25519"
	"fmt"
	"sync"

	"agnopol/internal/chain"
	"agnopol/internal/did"
	"agnopol/internal/faults"
	"agnopol/internal/hypercube"
	"agnopol/internal/ipfs"
	"agnopol/internal/lang"
	"agnopol/internal/olc"
	"agnopol/internal/polcrypto"
)

// DefaultHypercubeDimension is r for the DHT; the thesis example (Fig. 1.3)
// uses r = 6.
const DefaultHypercubeDimension = 6

// System bundles the off-chain substrates every actor shares: the DID
// registry (verifiable data registry), the IPFS swarm, the hypercube DHT,
// the Certification Authority and the compiled PoL contract.
type System struct {
	Rand     *chain.Rand
	Registry *did.Registry
	Auth     *did.Authenticator
	IPFS     *ipfs.Network
	Cube     *hypercube.Network
	CA       *CertificationAuthority
	Compiled *lang.Compiled
	// R is the hypercube dimension.
	R int

	mu      sync.Mutex
	handles map[string]*Handle
	dir     witnessDirectory

	// sigs memoizes ed25519 signature verifications (see sigcache.go);
	// quorum paths re-check the same proof several times per claim.
	sigs *polcrypto.SigCache

	// obs holds the proof-pipeline instrumentation (see obs.go); nil when
	// uninstrumented. Set once via Instrument before actors run.
	obs *sysObs

	// flt injects the off-chain fault classes (witness churn, IPFS,
	// hypercube) and drives the actors' retries; nil when fault injection
	// is off.
	flt *faults.Injector
}

// NewSystem builds the shared substrate with a deterministic seed.
func NewSystem(seed uint64) (*System, error) {
	compiled, err := CompilePoL()
	if err != nil {
		return nil, err
	}
	rng := chain.NewRand(seed).Fork("core")
	reg := did.NewRegistry()
	s := &System{
		Rand:     rng,
		Registry: reg,
		Auth:     did.NewAuthenticator(reg, rng.Fork("did-auth")),
		IPFS:     ipfs.NewNetwork(),
		Cube:     hypercube.MustNew(DefaultHypercubeDimension),
		CA:       NewCertificationAuthority(),
		Compiled: compiled,
		R:        DefaultHypercubeDimension,
		handles:  make(map[string]*Handle),
		sigs:     polcrypto.NewSigCache(defaultSigCacheSize),
	}
	return s, nil
}

// SetFaults attaches the fault injector to the system's off-chain
// substrates: the IPFS swarm and the hypercube consult it directly, and
// the actors retry under its Retry.
func (s *System) SetFaults(inj *faults.Injector) {
	s.flt = inj
	s.IPFS.SetFaults(inj)
	s.Cube.SetFaults(inj)
}

// RegisterDID creates a DID for a public key in the system's registry,
// mirroring the thesis' DID-generation smart contract (§2.1).
func (s *System) RegisterDID(pub ed25519.PublicKey) (did.DID, error) {
	return s.Registry.Register(pub, 0)
}

// NodeIDForOLC computes the hypercube node responsible for an area via the
// dual encoding.
func (s *System) NodeIDForOLC(code string) (uint64, error) {
	bs, err := olc.ToBitString(code, s.R)
	if err != nil {
		return 0, err
	}
	return bs.Uint64(), nil
}

// EntryNode maps an actor's DID to the hypercube node its device enters
// the DHT through (Fig. 2.3: the querying user contacts the network via
// their own node, then the query routes to the area's responsible node —
// entering via the target itself would make every route zero hops).
func (s *System) EntryNode(d did.DID) uint64 {
	return d.Uint64() & (1<<uint(s.R) - 1)
}

// LookupContract queries the hypercube for the contract of an area
// (Fig. 2.3 initial phase). via is the node the querying user enters the
// DHT through.
func (s *System) LookupContract(via uint64, code string) (*Handle, int, bool, error) {
	target, err := s.NodeIDForOLC(code)
	if err != nil {
		return nil, 0, false, err
	}
	entry, hops, ok, err := s.Cube.Get(via, target, code)
	if err != nil || !ok {
		return nil, hops, false, err
	}
	s.mu.Lock()
	h, ok := s.handles[entry.ContractID]
	s.mu.Unlock()
	if !ok {
		return nil, hops, false, fmt.Errorf("core: hypercube references unknown contract %q", entry.ContractID)
	}
	return h, hops, true, nil
}

// PublishContract stores a freshly deployed contract ID in the hypercube
// and the handle under that ID, so peers that find the ID can attach to it.
func (s *System) PublishContract(via uint64, code string, h *Handle) (int, error) {
	s.mu.Lock()
	s.handles[h.ID()] = h
	s.mu.Unlock()
	target, err := s.NodeIDForOLC(code)
	if err != nil {
		return 0, err
	}
	return s.Cube.Put(via, target, code, &hypercube.Entry{ContractID: h.ID(), OLC: code})
}

// CertificationAuthority keeps the witness public-key list delivered to
// verifiers (§2.1) and designates who may act as a verifier.
type CertificationAuthority struct {
	mu sync.Mutex
	// witnesses holds the keys in registration order, so the list a
	// verifier scans — and with it the scan's cost and the signature-cache
	// counters — is the same on every run of a seed; isWitness answers
	// membership without walking it.
	witnesses []ed25519.PublicKey
	isWitness map[string]bool
	verifiers map[did.DID]bool
}

// NewCertificationAuthority returns an empty CA.
func NewCertificationAuthority() *CertificationAuthority {
	return &CertificationAuthority{
		isWitness: make(map[string]bool),
		verifiers: make(map[did.DID]bool),
	}
}

// RegisterWitness records a witness public key; every new witness
// communicates its key to the CA. Registering a key again keeps its place.
func (ca *CertificationAuthority) RegisterWitness(pub ed25519.PublicKey) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if ca.isWitness[string(pub)] {
		return
	}
	ca.isWitness[string(pub)] = true
	ca.witnesses = append(ca.witnesses, append(ed25519.PublicKey(nil), pub...))
}

// WitnessList delivers the current witness keys in registration order (what
// verifiers iterate during signature checks).
func (ca *CertificationAuthority) WitnessList() []ed25519.PublicKey {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return append([]ed25519.PublicKey(nil), ca.witnesses...)
}

// IsKnownWitness reports whether a key belongs to a registered witness.
func (ca *CertificationAuthority) IsKnownWitness(pub ed25519.PublicKey) bool {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.isWitness[string(pub)]
}

// DesignateVerifier marks a DID as a trusted verifier ("permissioned
// verification": not everyone can verify, §2).
func (ca *CertificationAuthority) DesignateVerifier(d did.DID) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.verifiers[d] = true
}

// IsVerifier reports whether the DID may verify.
func (ca *CertificationAuthority) IsVerifier(d did.DID) bool {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.verifiers[d]
}
