package core

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"agnopol/internal/did"
	"agnopol/internal/ipfs"
	"agnopol/internal/polcrypto"
)

// ProofRequest is what the prover broadcasts to a nearby witness over
// Bluetooth (§2.3.1.1): current location as an Open Location Code, the
// prover's DID, the nonce the witness issued (replay protection), and the
// CID of the already-uploaded report data.
type ProofRequest struct {
	DID    did.DID
	OLC    string
	Nonce  uint64
	CID    ipfs.CID
	Wallet [20]byte
}

// hashInput is the canonical byte string hashed into the proof:
// H(DID ‖ OLC ‖ nonce ‖ CID). Hashing location and CID binds the proof to
// the claimed area and the exact report content — the properties §2.3.1.1
// motivates with the Alice-in-Bologna example.
func (r ProofRequest) hashInput() []byte {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], r.Nonce)
	var buf []byte
	buf = append(buf, r.DID...)
	buf = append(buf, '|')
	buf = append(buf, r.OLC...)
	buf = append(buf, '|')
	buf = append(buf, n[:]...)
	buf = append(buf, '|')
	buf = append(buf, r.CID...)
	return buf
}

// Hash computes the proof hash.
func (r ProofRequest) Hash() [32]byte {
	return polcrypto.Hash(r.hashInput())
}

// LocationProof is the signed certificate a witness issues (formula 2.1:
// SignedProof = PrivateKey_wit(Hash(proof))).
type LocationProof struct {
	Request    ProofRequest
	Hash       [32]byte
	Signature  []byte
	WitnessPub ed25519.PublicKey
	IssuedAt   time.Duration
}

// ConcatData is the "concatenation of values" stored in the contract map
// (§4.2): proofHashed-proofSigned-walletAddress-nonce-cid, hex-encoded
// fields joined with '-' exactly like the thesis frontend's concatData.
func (p *LocationProof) ConcatData() []byte {
	return ParsedConcat{
		Hash: p.Hash, Signature: p.Signature, Wallet: p.Request.Wallet,
		Nonce: p.Request.Nonce, CID: p.Request.CID,
	}.encode()
}

// ParsedConcat is the decoded on-chain record.
type ParsedConcat struct {
	Hash      [32]byte
	Signature []byte
	Wallet    [20]byte
	Nonce     uint64
	CID       ipfs.CID
}

// encode is the one writer of the on-chain line: lower-case hex, the
// nonce in decimal without leading zeros.
func (p ParsedConcat) encode() []byte {
	fields := []string{
		hex.EncodeToString(p.Hash[:]),
		hex.EncodeToString(p.Signature),
		hex.EncodeToString(p.Wallet[:]),
		strconv.FormatUint(p.Nonce, 10),
		string(p.CID),
	}
	return []byte(strings.Join(fields, "-"))
}

// ErrMalformedConcat is ParseConcatData's refusal of an on-chain line that
// is not exactly what ConcatData writes.
var ErrMalformedConcat = errors.New("core: malformed on-chain proof record")

// ParseConcatData decodes the on-chain concatenation back into its fields.
// Only the canonical line is accepted — the one ConcatData writes for the
// fields it decodes to — so one proof has exactly one on-chain form: an
// upper-case hex digit, a leading zero or sign, or trailing bytes after the
// nonce are malformed, not a second spelling of the same proof.
func ParseConcatData(data []byte) (ParsedConcat, error) {
	parts := strings.Split(string(data), "-")
	if len(parts) != 5 {
		return ParsedConcat{}, fmt.Errorf("%w: %d fields, want 5", ErrMalformedConcat, len(parts))
	}
	var out ParsedConcat
	h, err := hex.DecodeString(parts[0])
	if err != nil || len(h) != 32 {
		return ParsedConcat{}, fmt.Errorf("%w: proof hash field %.16q", ErrMalformedConcat, parts[0])
	}
	copy(out.Hash[:], h)
	if out.Signature, err = hex.DecodeString(parts[1]); err != nil {
		return ParsedConcat{}, fmt.Errorf("%w: signature field: %v", ErrMalformedConcat, err)
	}
	w, err := hex.DecodeString(parts[2])
	if err != nil || len(w) != 20 {
		return ParsedConcat{}, fmt.Errorf("%w: wallet field %.16q", ErrMalformedConcat, parts[2])
	}
	copy(out.Wallet[:], w)
	if out.Nonce, err = strconv.ParseUint(parts[3], 10, 64); err != nil {
		return ParsedConcat{}, fmt.Errorf("%w: nonce field %.24q", ErrMalformedConcat, parts[3])
	}
	out.CID = ipfs.CID(parts[4])
	if !bytes.Equal(out.encode(), data) {
		return ParsedConcat{}, fmt.Errorf("%w: not in canonical form", ErrMalformedConcat)
	}
	// A copy: the substring would keep the whole line alive for as long as
	// the CID is held, and the hypercube holds it for good.
	out.CID = ipfs.CID(strings.Clone(parts[4]))
	return out, nil
}

// Report is the crowdsensed environmental report of the use case
// (Chapter 3): title, description and optional picture reference, stored on
// IPFS and addressed by CID.
type Report struct {
	Title       string `json:"title"`
	Description string `json:"description"`
	Category    string `json:"category"`
	PictureRef  string `json:"pictureRef,omitempty"`
	OLC         string `json:"olc"`
	Author      string `json:"author"` // the author's DID
}
