// Package did implements the W3C Decentralized IDentifier pieces the paper
// uses (§1.6, §2.2): DIDs, DID documents, a verifiable data registry with
// resolution, and the challenge–response authentication of Fig. 2.4 by which
// a prover demonstrates control of a DID to a witness.
//
// The thesis sketches the challenge as "encrypt a random value with the
// public key in the DID document". ed25519 keys do not encrypt; we implement
// the equivalent — and standard DID-Auth — mechanism: the verifier sends a
// random challenge and the holder returns a signature over it. Both variants
// have the same security content: only the private-key holder can answer.
package did

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"time"

	"agnopol/internal/polcrypto"
)

// Method is the DID method of this system's registry.
const Method = "agno"

// DID is a decentralized identifier string, e.g.
// "did:agno:3f41…". Its method-specific ID is the hex hash of the initial
// controller key, which makes DIDs globally unique by construction.
type DID string

// New derives a fresh DID from the controller's public key.
func New(pub ed25519.PublicKey) DID {
	return DID(fmt.Sprintf("did:%s:%s", Method, polcrypto.HashHex(pub)))
}

// Uint64 compresses the DID into the UInt the thesis contract uses as the
// map key ("at the writing time it is not possible to use Bytes as a key
// type for the Map" — §2.4, footnote 13). Collision-free for the population
// sizes the experiments use; the full DID stays in the concatenated value.
func (d DID) Uint64() uint64 {
	h := polcrypto.Hash([]byte(d))
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(h[i])
	}
	return v
}

// VerificationMethod is the public key material in a document.
type VerificationMethod struct {
	ID         string
	Type       string
	Controller DID
	PublicKey  ed25519.PublicKey
}

// Document is a DID document (Fig. 1.8): it names the subject, its
// controller, and the verification methods used to authenticate it.
type Document struct {
	ID                 DID
	Controller         DID
	VerificationMethod []VerificationMethod
	Authentication     []string // references into VerificationMethod by ID
	Updated            time.Duration
}

// AuthenticationKey returns the public key designated for authentication.
func (doc *Document) AuthenticationKey() (ed25519.PublicKey, error) {
	if len(doc.Authentication) == 0 {
		return nil, errors.New("did: document has no authentication method")
	}
	want := doc.Authentication[0]
	for _, vm := range doc.VerificationMethod {
		if vm.ID == want {
			return vm.PublicKey, nil
		}
	}
	return nil, fmt.Errorf("did: authentication method %q not found", want)
}

var (
	// ErrNotFound reports a DID with no document in the registry.
	ErrNotFound = errors.New("did: not found")
	// ErrDuplicate rejects re-registration of an existing DID.
	ErrDuplicate = errors.New("did: already registered")
)

// Registry is the verifiable data registry DID resolution reads from. The
// paper stores it on a blockchain; the in-memory registry preserves the two
// interface properties the protocol uses: anyone can resolve, and a DID is
// registered once.
type Registry struct {
	mu   sync.RWMutex
	docs map[DID]*Document
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{docs: make(map[DID]*Document)}
}

// Register creates the DID and document for a controller key and returns the
// new DID. This is the "request for a DID generation" interaction of §2.1.
func (r *Registry) Register(pub ed25519.PublicKey, now time.Duration) (DID, error) {
	d := New(pub)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.docs[d]; exists {
		return "", fmt.Errorf("%w: %s", ErrDuplicate, d)
	}
	vmID := string(d) + "#key-1"
	r.docs[d] = &Document{
		ID:         d,
		Controller: d,
		VerificationMethod: []VerificationMethod{{
			ID:         vmID,
			Type:       "Ed25519VerificationKey2020",
			Controller: d,
			PublicKey:  append(ed25519.PublicKey(nil), pub...),
		}},
		Authentication: []string{vmID},
		Updated:        now,
	}
	return d, nil
}

// Resolve performs DID resolution: DID → document.
func (r *Registry) Resolve(d DID) (*Document, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	doc, ok := r.docs[d]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, d)
	}
	cp := *doc
	cp.VerificationMethod = append([]VerificationMethod(nil), doc.VerificationMethod...)
	cp.Authentication = append([]string(nil), doc.Authentication...)
	return &cp, nil
}
