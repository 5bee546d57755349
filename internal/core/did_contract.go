package core

import (
	"fmt"

	"agnopol/internal/did"
	"agnopol/internal/lang"
	"agnopol/internal/polcrypto"
)

// The DID-generation/anchoring smart contract of §2.1 and §2.4: "One of
// the first smart contracts could be designed with the aim of producing
// DIDs for users that required it". On-chain it anchors the binding
// DID → authentication-key digest, making the verifiable data registry's
// content tamper-evident on the ledger: anyone can check that the document
// they resolved off-chain matches the digest the subject anchored. The
// contract itself is contracts/did-registry.pol (CompileDIDRegistry).

// AnchorDigest is the 32-byte commitment anchored on-chain for a DID.
func AnchorDigest(d did.DID, doc *did.Document) ([32]byte, error) {
	key, err := doc.AuthenticationKey()
	if err != nil {
		return [32]byte{}, err
	}
	return polcrypto.Hash([]byte(d), key), nil
}

// DIDAnchor is a deployed anchoring contract on some connector.
type DIDAnchor struct {
	sys    *System
	conn   Connector
	handle *Handle
}

// DeployDIDAnchor deploys the registry contract.
func DeployDIDAnchor(sys *System, conn Connector, payer *Account) (*DIDAnchor, error) {
	compiled, err := CompileDIDRegistry()
	if err != nil {
		return nil, err
	}
	h, _, err := conn.Deploy(payer, compiled, nil)
	if err != nil {
		return nil, err
	}
	return &DIDAnchor{sys: sys, conn: conn, handle: h}, nil
}

// Anchor publishes the digest of a DID's current document.
func (a *DIDAnchor) Anchor(payer *Account, d did.DID) (*OpResult, error) {
	doc, err := a.sys.Registry.Resolve(d)
	if err != nil {
		return nil, err
	}
	digest, err := AnchorDigest(d, doc)
	if err != nil {
		return nil, err
	}
	_, op, err := a.conn.Invoke(payer, a.handle, "register",
		CallOpts{EscrowFund: true},
		lang.Uint64Value(d.Uint64()), lang.BytesValue(digest[:]))
	return op, err
}

// Verify checks the resolved document against the on-chain anchor: a
// mismatch means the off-chain registry served a document the subject
// never anchored (tampering, or a rotation not yet re-anchored).
func (a *DIDAnchor) Verify(d did.DID) error {
	doc, err := a.sys.Registry.Resolve(d)
	if err != nil {
		return err
	}
	want, err := AnchorDigest(d, doc)
	if err != nil {
		return err
	}
	raw, ok, err := a.conn.ReadMap(a.handle, "anchors", d.Uint64())
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: DID %s has no on-chain anchor", d)
	}
	if len(raw.Bytes) != 32 || [32]byte(raw.Bytes) != want {
		return fmt.Errorf("core: DID %s document does not match its on-chain anchor", d)
	}
	return nil
}

// anchoredCount reads the registry's counter (used by tests).
func (a *DIDAnchor) anchoredCount() (uint64, error) {
	v, err := a.conn.View(a.handle, "getCount")
	if err != nil {
		return 0, err
	}
	return v.Uint, nil
}
