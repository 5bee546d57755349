// Package ipfs simulates the InterPlanetary File System as the paper uses
// it: a content-addressed peer-to-peer store. Objects get a CID derived from
// hashing their content (SHA-256, as IPFS does), any registered peer can
// add content, and every fetch is checked against its CID. Pinning is the
// RPC that makes a copy durable (§1.5); the model keeps every object, so
// what a pin can do here is fail, which the fault injector draws.
package ipfs

import (
	"errors"
	"fmt"
	"sync"

	"agnopol/internal/faults"
	"agnopol/internal/polcrypto"
)

// CID is a content identifier: the multibase-style rendering of the SHA-256
// digest of the content, prefixed with a version tag.
type CID string

// ComputeCID derives the content identifier for data.
func ComputeCID(data []byte) CID {
	return CID("bafy" + polcrypto.HashHex(data))
}

// Verify reports whether data actually hashes to this CID — the integrity
// property that lets the PoL verifier trust report bytes fetched from any
// peer.
func (c CID) Verify(data []byte) bool {
	return ComputeCID(data) == c
}

var (
	// ErrNotFound reports that no reachable peer provides the content.
	ErrNotFound = errors.New("ipfs: content not found")
	// ErrNoPeer reports an operation against an unknown peer.
	ErrNoPeer = errors.New("ipfs: unknown peer")
)

// Network is the simulated IPFS swarm.
type Network struct {
	mu      sync.RWMutex
	peers   map[string]bool
	objects map[CID][]byte

	// flt injects fetch and pin failures; nil when fault injection is off.
	flt *faults.Injector
}

// SetFaults attaches a fault injector to the swarm's fetch and pin paths.
func (n *Network) SetFaults(inj *faults.Injector) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.flt = inj
}

// NewNetwork creates an empty swarm.
func NewNetwork() *Network {
	return &Network{
		peers:   make(map[string]bool),
		objects: make(map[CID][]byte),
	}
}

// AddPeer registers a peer by name. Adding an existing peer is a no-op.
func (n *Network) AddPeer(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[name] = true
}

// Add stores data from the given peer and returns its CID; the same
// content from another peer is the same object. Call Pin to make it
// durable.
func (n *Network) Add(peer string, data []byte) (CID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.peers[peer] {
		return "", fmt.Errorf("%w: %q", ErrNoPeer, peer)
	}
	cid := ComputeCID(data)
	if _, ok := n.objects[cid]; !ok {
		n.objects[cid] = append([]byte(nil), data...)
	}
	return cid, nil
}

// Pin asks the peer to become a durable provider of the content. The peer
// must be registered and the content known before the pin RPC is tried.
func (n *Network) Pin(peer string, cid CID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.peers[peer] {
		return fmt.Errorf("%w: %q", ErrNoPeer, peer)
	}
	if _, ok := n.objects[cid]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, cid)
	}
	// An injected failure is the pin RPC failing, which would leave the
	// content at GC risk until the caller re-pins.
	return n.flt.Try(faults.ClassIPFSUnpin, "ipfs.pin")
}

// Get fetches the content by CID from any provider, verifying integrity
// against the CID before returning.
func (n *Network) Get(cid CID) ([]byte, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if err := n.flt.Try(faults.ClassIPFSFetch, "ipfs.get"); err != nil {
		// No reachable provider answered this request; a later retry can
		// find one.
		return nil, err
	}
	data, ok := n.objects[cid]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, cid)
	}
	if !cid.Verify(data) {
		return nil, fmt.Errorf("ipfs: integrity failure for %s", cid)
	}
	return append([]byte(nil), data...), nil
}
