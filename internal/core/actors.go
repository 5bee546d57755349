package core

import (
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"agnopol/internal/did"
	"agnopol/internal/faults"
	"agnopol/internal/geo"
	"agnopol/internal/ipfs"
	"agnopol/internal/lang"
	"agnopol/internal/obs"
	"agnopol/internal/olc"
	"agnopol/internal/polcrypto"
)

// Protocol errors.
var (
	ErrNotInRange      = errors.New("core: peer not within Bluetooth range")
	ErrLocationClaim   = errors.New("core: claimed area is not where the witness is")
	ErrBadNonce        = errors.New("core: nonce was not issued to this prover or was already used")
	ErrUnknownWitness  = errors.New("core: proof not signed by any known witness")
	ErrSelfSigned      = errors.New("core: proof signed by the prover itself")
	ErrHashMismatch    = errors.New("core: on-chain hash does not match recomputed proof hash")
	ErrNotVerifier     = errors.New("core: caller is not a designated verifier")
	ErrReportCorrupted = errors.New("core: report bytes do not match CID")
)

// Witness issues location proofs to provers physically nearby (§2.3.1.1).
// Witnesses are untrusted by the system; their accountability comes from
// the CA-registered public key their signatures are checked against.
type Witness struct {
	sys    *System
	Key    *polcrypto.KeyPair
	DID    did.DID
	Device *geo.Device

	mu     sync.Mutex
	nonces map[did.DID]uint64
	used   map[uint64]bool
	seq    uint64
}

// NewWitness creates a witness at a position, registers its DID and
// communicates its public key to the Certification Authority.
func NewWitness(sys *System, at geo.LatLng) (*Witness, error) {
	kp, err := polcrypto.GenerateKeyPair(sys.Rand.Fork("witness-key"))
	if err != nil {
		return nil, err
	}
	d, err := sys.RegisterDID(kp.Public)
	if err != nil {
		return nil, err
	}
	sys.CA.RegisterWitness(kp.Public)
	w := &Witness{
		sys:    sys,
		Key:    kp,
		DID:    d,
		Device: geo.NewDevice(at),
		nonces: make(map[did.DID]uint64),
		used:   make(map[uint64]bool),
	}
	sys.AnnounceWitness(w)
	return w, nil
}

// BeginAuth starts the DID challenge–response with a prover (Fig. 2.4).
func (w *Witness) BeginAuth(prover did.DID) (did.Challenge, error) {
	return w.sys.Auth.NewChallenge(prover)
}

// IssueNonce hands the prover the nonce to embed in its request — the
// replay protection of §2.3.1.1.
func (w *Witness) IssueNonce(prover did.DID) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	n := w.seq<<16 | uint64(w.sys.Rand.Uint64n(1<<16))
	w.nonces[prover] = n
	return n
}

// maxAreaSlackMeters tolerates provers standing near an OLC cell border:
// the witness accepts a claimed area whose center is within this distance,
// on top of direct containment. A 10-digit OLC cell is ~14 m, so the slack
// stays within Bluetooth scale.
const maxAreaSlackMeters = 30

// HandleProofRequest performs the witness-side checks and — when they all
// pass — computes and signs the location proof:
//
//  1. physical proximity: the Bluetooth exchange only completes when the
//     two devices are in radio range (true positions, not claims);
//  2. identity: the prover proved control of its DID via challenge–response;
//  3. freshness: the request carries the nonce this witness issued to this
//     prover, unused;
//  4. location consistency: the claimed OLC area is where the witness
//     itself is.
func (w *Witness) HandleProofRequest(proverDev *geo.Device, auth did.ChallengeResponse, req ProofRequest) (*LocationProof, error) {
	if !w.Device.CanReach(proverDev) {
		w.sys.rejectProof("out_of_range")
		return nil, fmt.Errorf("%w: %.0f m apart", ErrNotInRange,
			geo.DistanceMeters(w.Device.TruePosition, proverDev.TruePosition))
	}
	if auth.Challenge.DID != req.DID {
		w.sys.rejectProof("auth")
		return nil, fmt.Errorf("%w: challenge for %s, request from %s", did.ErrAuthFailed, auth.Challenge.DID, req.DID)
	}
	if err := w.sys.Auth.VerifyResponse(auth); err != nil {
		w.sys.rejectProof("auth")
		return nil, err
	}
	w.mu.Lock()
	issued, ok := w.nonces[req.DID]
	if !ok || issued != req.Nonce || w.used[req.Nonce] {
		w.mu.Unlock()
		w.sys.rejectProof("bad_nonce")
		return nil, ErrBadNonce
	}
	w.used[req.Nonce] = true
	delete(w.nonces, req.DID)
	w.mu.Unlock()

	area, err := olc.Decode(req.OLC)
	if err != nil {
		w.sys.rejectProof("bad_olc")
		return nil, fmt.Errorf("core: claimed OLC: %w", err)
	}
	wp := w.Device.TruePosition
	if !area.Contains(wp.Lat, wp.Lng) {
		cLat, cLng := area.Center()
		if geo.DistanceMeters(wp, geo.LatLng{Lat: cLat, Lng: cLng}) > maxAreaSlackMeters {
			w.sys.rejectProof("location_claim")
			return nil, fmt.Errorf("%w: claimed %s", ErrLocationClaim, req.OLC)
		}
	}

	if w.sys.obs != nil {
		w.sys.obs.proofsIssued.Inc()
	}
	h := req.Hash()
	return &LocationProof{
		Request:    req,
		Hash:       h,
		Signature:  w.Key.Sign(h[:]),
		WitnessPub: w.Key.Public,
		IssuedAt:   0,
	}, nil
}

// accounts is an actor's wallets, one per connector name. Prover and
// Verifier embed it.
type accounts map[string]*Account

// EnsureAccount creates (once) and returns the actor's wallet on a
// connector, funded with the given token amount.
func (a accounts) EnsureAccount(conn Connector, tokens float64) (*Account, error) {
	if acct, ok := a[conn.Name()]; ok {
		return acct, nil
	}
	acct, err := conn.NewAccount(tokens)
	if err != nil {
		return nil, err
	}
	a[conn.Name()] = acct
	return acct, nil
}

// Account returns the actor's wallet on a connector, if created.
func (a accounts) Account(conn Connector) (*Account, bool) {
	acct, ok := a[conn.Name()]
	return acct, ok
}

// wallet is the account an operation on conn pays from; an actor without
// one gets an error, never a nil account.
func (a accounts) wallet(conn Connector) (*Account, error) {
	if acct, ok := a[conn.Name()]; ok {
		return acct, nil
	}
	return nil, fmt.Errorf("core: no account on %s", conn.Name())
}

// Prover is a mobile user who wants its reports accepted (§2.1).
type Prover struct {
	sys    *System
	Key    *polcrypto.KeyPair
	DID    did.DID
	Device *geo.Device
	accounts
}

// NewProver creates a prover at a position with a fresh DID, and registers
// it as an IPFS peer.
func NewProver(sys *System, at geo.LatLng) (*Prover, error) {
	kp, err := polcrypto.GenerateKeyPair(sys.Rand.Fork("prover-key"))
	if err != nil {
		return nil, err
	}
	d, err := sys.RegisterDID(kp.Public)
	if err != nil {
		return nil, err
	}
	sys.IPFS.AddPeer(string(d))
	return &Prover{
		sys:      sys,
		Key:      kp,
		DID:      d,
		Device:   geo.NewDevice(at),
		accounts: make(accounts),
	}, nil
}

// ClaimedOLC encodes the device's claimed position at the default
// precision (§2.6: the OLC, not raw GPS, is what leaves the device).
func (p *Prover) ClaimedOLC() (string, error) {
	pos := p.Device.ClaimedPosition
	return olc.Encode(pos.Lat, pos.Lng, olc.DefaultCodeLength)
}

// UploadReport serializes the report, stores it on IPFS and pins it.
func (p *Prover) UploadReport(r Report) (ipfs.CID, error) {
	r.Author = string(p.DID)
	data, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return p.pin(data)
}

// pin stores data on IPFS under the prover's peer and pins it. Pin
// failures (the ipfs_unpin fault class) are retried at once, without
// backoff: unpinned content would be lost to the next garbage collection,
// so the device keeps re-pinning until durable.
func (p *Prover) pin(data []byte) (ipfs.CID, error) {
	cid, err := p.sys.IPFS.Add(string(p.DID), data)
	if err != nil {
		return "", err
	}
	if _, err := p.sys.flt.Retry(nil, func() error { return p.sys.IPFS.Pin(string(p.DID), cid) }); err != nil {
		return "", fmt.Errorf("core: pin: %w", err)
	}
	return cid, nil
}

// RequestProof runs the full Bluetooth exchange with a witness: DID
// challenge–response, nonce issuance, proof request, proof verification on
// receipt.
func (p *Prover) RequestProof(w *Witness, cid ipfs.CID, wallet [20]byte) (*LocationProof, error) {
	sp := p.sys.span("pol.request_proof", obs.L("prover", string(p.DID)))
	defer sp.End()
	code, err := p.ClaimedOLC()
	if err != nil {
		return nil, err
	}
	chSp := p.sys.span("pol.did_challenge")
	ch, err := w.BeginAuth(p.DID)
	if err != nil {
		chSp.End()
		return nil, err
	}
	resp := did.SignChallenge(p.Key, ch)
	p.sys.endPhase(chSp, PhaseChallenge)

	signSp := p.sys.span("pol.witness_sign")
	nonce := w.IssueNonce(p.DID)
	req := ProofRequest{DID: p.DID, OLC: code, Nonce: nonce, CID: cid, Wallet: wallet}
	proof, err := w.HandleProofRequest(p.Device, resp, req)
	p.sys.endPhase(signSp, PhaseSign)
	if err != nil {
		return nil, err
	}
	// The prover checks the certificate before spending fees on it.
	vSp := p.sys.span("pol.cert_verify")
	err = p.sys.verifyProof(proof)
	vSp.End()
	if err != nil {
		return nil, err
	}
	return proof, nil
}

// RequestProofResilient is RequestProof under the system's injector's
// Retry: when a witness does not answer the Bluetooth exchange (the
// witness_unavailable fault class — churn, the witness walked away or shut
// down), the prover backs off on the connector's simulated clock,
// re-scans for nearby witnesses and asks the closest responder again.
// With no fault plan attached it reduces exactly to RequestProof.
func (p *Prover) RequestProofResilient(conn Connector, w *Witness, cid ipfs.CID, wallet [20]byte) (*LocationProof, error) {
	var proof *LocationProof
	rescan := false
	_, err := p.sys.flt.Retry(conn.Sleep, func() (err error) {
		// Graceful degradation: after waiting out the churn, re-discover.
		// The scan is sorted by distance, so the prover converges on
		// whichever witness answers next.
		if rescan {
			if nearby := p.DiscoverWitnesses(); len(nearby) > 0 {
				w = nearby[0]
			}
		}
		rescan = true
		if err := p.sys.flt.Try(faults.ClassWitnessDown, "core.witness"); err != nil {
			return fmt.Errorf("core: witness exchange: %w", err)
		}
		proof, err = p.RequestProof(w, cid, wallet)
		return err
	})
	return proof, err
}

// SubmissionResult reports how a proof landed on-chain.
type SubmissionResult struct {
	Handle   *Handle
	Deployed bool
	Op       *OpResult
	Hops     int
}

// SubmitProof implements the §3.1.2 insertion flow: look the area's
// contract up in the hypercube; deploy a new one (becoming its creator)
// when absent, otherwise attach with insert_data.
func (p *Prover) SubmitProof(conn Connector, proof *LocationProof, rewardPerProver uint64) (*SubmissionResult, error) {
	acct, err := p.wallet(conn)
	if err != nil {
		return nil, err
	}
	code := proof.Request.OLC
	sp := p.sys.span("pol.submit_proof", obs.L("olc", code), obs.L("chain", conn.Name()))
	defer sp.End()
	via := p.sys.EntryNode(p.DID)
	dSp := p.sys.span("pol.discover")
	h, hops, found, err := p.sys.LookupContract(via, code)
	p.sys.endPhase(dSp, PhaseDiscover)
	if p.sys.obs != nil {
		p.sys.obs.hops.Observe(float64(hops))
	}
	if err != nil {
		return nil, err
	}
	insert := []lang.Value{lang.BytesValue(proof.ConcatData()), lang.Uint64Value(p.DID.Uint64())}
	if !found {
		// Deployment is two chained operations (Fig. 3.1): the creation
		// transaction, then the creator's own insert_data — which also
		// carries the escrow activation deposit on connectors that need
		// one.
		depSp := p.sys.span("pol.deploy")
		handle, deployOp, err := conn.Deploy(acct, p.sys.Compiled, []lang.Value{
			lang.BytesValue([]byte(code)),
			lang.Uint64Value(p.DID.Uint64()),
			lang.Uint64Value(rewardPerProver),
		})
		if err != nil {
			p.sys.endPhase(depSp, PhaseSubmit)
			return nil, fmt.Errorf("core: deploy: %w", err)
		}
		_, insertOp, err := conn.Invoke(acct, handle, "insert_data",
			CallOpts{EscrowFund: true}, insert...)
		p.sys.endPhase(depSp, PhaseSubmit)
		if err != nil {
			return nil, fmt.Errorf("core: creator insert: %w", err)
		}
		pubSp := p.sys.span("pol.publish")
		_, err = p.sys.PublishContract(via, code, handle)
		p.sys.endPhase(pubSp, PhasePublish)
		if err != nil {
			return nil, err
		}
		op := &OpResult{
			Latency:  deployOp.Latency + insertOp.Latency,
			Fee:      deployOp.Fee.Add(insertOp.Fee),
			GasUsed:  deployOp.GasUsed + insertOp.GasUsed,
			Receipts: append(deployOp.Receipts, insertOp.Receipts...),
			Retries:  deployOp.Retries + insertOp.Retries,
		}
		if op.Retries > 0 {
			sp.Label("retries", fmt.Sprint(op.Retries))
		}
		if p.sys.obs != nil {
			p.sys.obs.contractsDeployed.Inc()
			p.sys.observeChainOp("deploy", op.Latency)
		}
		return &SubmissionResult{Handle: handle, Deployed: true, Op: op, Hops: hops}, nil
	}
	aSp := p.sys.span("pol.attach")
	_, op, err := conn.Invoke(acct, h, "insert_data", CallOpts{}, insert...)
	p.sys.endPhase(aSp, PhaseSubmit)
	if err != nil {
		return nil, fmt.Errorf("core: attach: %w", err)
	}
	if op.Retries > 0 {
		sp.Label("retries", fmt.Sprint(op.Retries))
	}
	if p.sys.obs != nil {
		p.sys.obs.proofsAttached.Inc()
		p.sys.observeChainOp("attach", op.Latency)
	}
	return &SubmissionResult{Handle: h, Deployed: false, Op: op, Hops: hops}, nil
}

// Verifier validates staged proofs and moves accepted reports into the
// hypercube — the garbage-in gate (§2.3.1.2).
type Verifier struct {
	sys *System
	Key *polcrypto.KeyPair
	DID did.DID
	accounts
}

// NewVerifier creates a verifier and has the CA designate it.
func NewVerifier(sys *System) (*Verifier, error) {
	kp, err := polcrypto.GenerateKeyPair(sys.Rand.Fork("verifier-key"))
	if err != nil {
		return nil, err
	}
	d, err := sys.RegisterDID(kp.Public)
	if err != nil {
		return nil, err
	}
	sys.CA.DesignateVerifier(d)
	sys.IPFS.AddPeer(string(d))
	return &Verifier{sys: sys, Key: kp, DID: d, accounts: make(accounts)}, nil
}

// FundContract deposits reward money via insert_money.
func (v *Verifier) FundContract(conn Connector, h *Handle, amount uint64) (*OpResult, error) {
	if !v.sys.CA.IsVerifier(v.DID) {
		return nil, ErrNotVerifier
	}
	acct, err := v.wallet(conn)
	if err != nil {
		return nil, err
	}
	_, op, err := conn.Invoke(acct, h, "insert_money",
		CallOpts{Pay: amount}, lang.Uint64Value(amount))
	return op, err
}

// fetchReport retrieves report bytes from IPFS under the system's
// injector's Retry: transient fetch faults back off on the connector's
// simulated clock and retry. After a recovered fetch the verifier re-pins
// the content under its own peer — the §1.5 degradation rule: content that
// was hard to find once should gain a provider, not stay fragile.
func (v *Verifier) fetchReport(conn Connector, cid ipfs.CID) (data []byte, err error) {
	retries, err := v.sys.flt.Retry(conn.Sleep, func() (err error) {
		data, err = v.sys.IPFS.Get(cid)
		return err
	})
	if err == nil && retries > 0 {
		// Ignore pin errors here: the fetch succeeded and re-pinning is
		// best-effort hardening, itself subject to injection.
		_ = v.sys.IPFS.Pin(string(v.DID), cid)
	}
	return data, err
}

// Verification is the outcome of checking one prover.
type Verification struct {
	Prover   did.DID
	Report   Report
	CID      ipfs.CID
	Accepted bool
	Reason   string
	Op       *OpResult
}

// rejected builds a failed Verification and counts the rejection.
func (v *Verifier) rejected(prover did.DID, reason string) *Verification {
	if v.sys.obs != nil {
		v.sys.obs.verifRejected.Inc()
	}
	return &Verification{Prover: prover, Accepted: false, Reason: reason}
}

// VerifyProver runs the §2.3.1.2 procedure for one DID:
//
//  1. read the concatenated values from the contract map;
//  2. recompute Hash(DID‖OLC‖nonce‖CID) with the contract's area and check
//     it equals the stored hash (catches location or CID substitution);
//  3. check the signature opens under some CA-registered witness key —
//     and not under the prover's own key (self-signing);
//  4. fetch the report from IPFS and check its integrity against the CID;
//  5. call the verify API (pays the reward, deletes the map entry);
//  6. insert the CID into the hypercube (garbage-in).
func (v *Verifier) VerifyProver(conn Connector, h *Handle, prover did.DID) (*Verification, error) {
	if !v.sys.CA.IsVerifier(v.DID) {
		return nil, ErrNotVerifier
	}
	acct, err := v.wallet(conn)
	if err != nil {
		return nil, err
	}
	sp := v.sys.span("pol.verify", obs.L("prover", string(prover)), obs.L("chain", conn.Name()))
	defer v.sys.endPhase(sp, PhaseVerify)
	key := prover.Uint64()
	raw, ok, err := conn.ReadMap(h, EasyMapName, key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: no staged data for %s", prover)
	}
	posVal, err := conn.ReadGlobal(h, PositionGlobal)
	if err != nil {
		return nil, err
	}
	doc, err := v.sys.Registry.Resolve(prover)
	if err != nil {
		return nil, err
	}
	proverKey, err := doc.AuthenticationKey()
	if err != nil {
		return nil, err
	}
	code := string(posVal.Bytes)
	req, err := v.checkConcat(prover, raw.Bytes, code, proverKey)
	if err != nil {
		return v.rejected(prover, err.Error()), nil
	}

	// Retrieve and integrity-check the report content.
	fSp := v.sys.span("pol.ipfs_fetch")
	data, err := v.fetchReport(conn, req.CID)
	fSp.End()
	if err != nil {
		return v.rejected(prover, err.Error()), nil
	}
	if !req.CID.Verify(data) {
		return v.rejected(prover, ErrReportCorrupted.Error()), nil
	}
	var report Report
	if err := json.Unmarshal(data, &report); err != nil {
		return v.rejected(prover, "malformed report: "+err.Error()), nil
	}

	// On-chain verification: pays the reward and clears the map entry.
	cSp := v.sys.span("pol.chain_verify")
	_, op, err := conn.Invoke(acct, h, "verify", CallOpts{},
		lang.Uint64Value(key),
		lang.AddressValue(req.Wallet),
	)
	cSp.End()
	if err != nil {
		return nil, err
	}
	if op.Retries > 0 {
		sp.Label("retries", fmt.Sprint(op.Retries))
	}

	// Garbage-in: only now does the report reach the hypercube.
	pSp := v.sys.span("pol.publish")
	target, err := v.sys.NodeIDForOLC(code)
	if err != nil {
		pSp.End()
		return nil, err
	}
	_, err = v.sys.Cube.AppendCID(v.sys.EntryNode(v.DID), target, code, h.ID(), string(req.CID))
	v.sys.endPhase(pSp, PhasePublish)
	if err != nil {
		return nil, err
	}
	if v.sys.obs != nil {
		v.sys.obs.verifAccepted.Inc()
		v.sys.observeChainOp("verify", op.Latency)
	}
	return &Verification{
		Prover: prover, Report: report, CID: req.CID,
		Accepted: true, Op: op,
	}, nil
}

// checkConcat is steps 2–3: line, the record staged under the prover's DID,
// certifies the claim it names for the contract's area, signed by a
// registered witness other than the prover.
func (v *Verifier) checkConcat(prover did.DID, line []byte, area string, proverKey ed25519.PublicKey) (ProofRequest, error) {
	parsed, err := ParseConcatData(line)
	if err != nil {
		return ProofRequest{}, err
	}
	req := ProofRequest{DID: prover, OLC: area, Nonce: parsed.Nonce, CID: parsed.CID, Wallet: parsed.Wallet}
	if req.Hash() != parsed.Hash {
		return ProofRequest{}, ErrHashMismatch
	}
	// Locate the signing witness among the CA-registered keys; reject a
	// proof the prover signed for itself (§2.3.1.2, footnote 12).
	if !v.sys.witnessSigned(proverKey, parsed.Hash[:], parsed.Signature) {
		// No registered witness other than the prover opened the signature.
		// Verifying under the prover's own key only names the rejection, so
		// it is paid here and not on the accept path.
		if v.sys.verifyUnmemoized(proverKey, parsed.Hash[:], parsed.Signature) {
			return ProofRequest{}, ErrSelfSigned
		}
		return ProofRequest{}, ErrUnknownWitness
	}
	return req, nil
}
