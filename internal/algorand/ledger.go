package algorand

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/mstate"
	"agnopol/internal/polcrypto"
)

// Account is an Algorand account with its signing key.
type Account = chain.Account

// Trie key derivation. Every logical ledger entry — a balance, an app's
// metadata, one global, an asset's metadata, an asset holding — is one key
// in the Merkle trie, tagged by column family.
func u64b(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func balKey(addr chain.Address) mstate.Key { return mstate.KeyOf("algo/bal", addr[:]) }
func appMetaKey(id uint64) mstate.Key      { return mstate.KeyOf("algo/app", u64b(id)) }
func globalKey(id uint64, key string) mstate.Key {
	return mstate.KeyOf("algo/g", u64b(id), []byte(key))
}
func assetMetaKey(id uint64) mstate.Key { return mstate.KeyOf("algo/asset", u64b(id)) }
func holdKey(addr chain.Address, id uint64) mstate.Key {
	return mstate.KeyOf("algo/hold", u64b(id), addr[:])
}

// encodeValue / decodeValue render an avm.Value as a trie entry.
func encodeValue(v avm.Value) []byte {
	if v.IsBytes {
		return append([]byte{1}, v.Bytes...)
	}
	return append([]byte{0}, u64b(v.Uint)...)
}

func decodeValue(enc []byte) avm.Value {
	if len(enc) == 0 {
		return avm.Value{}
	}
	if enc[0] == 1 {
		return avm.Value{IsBytes: true, Bytes: append([]byte(nil), enc[1:]...)}
	}
	return avm.Value{Uint: binary.BigEndian.Uint64(enc[1:])}
}

// encodeAppMeta renders an app's metadata leaf: a zero byte, the creator,
// the creation round and the TEAL source. Apps are never deleted, so the
// leading byte is always 0.
func encodeAppMeta(creator chain.Address, round uint64, source string) []byte {
	enc := make([]byte, 0, 1+20+8+len(source))
	enc = append(enc, 0)
	enc = append(enc, creator[:]...)
	enc = append(enc, u64b(round)...)
	return append(enc, source...)
}

// ErrCorruptState reports ledger state loaded from an external node store
// that does not hold what its keys, or the checkpoint beside it, say: a
// malformed leaf, or app leaves that do not run from 1 to AppSeq.
var ErrCorruptState = errors.New("algorand: corrupt ledger state")

// decodeAppMeta returns the TEAL source of app id's metadata leaf.
func decodeAppMeta(id uint64, enc []byte) (string, error) {
	if len(enc) < 29 {
		return "", fmt.Errorf("%w: app %d metadata is %d bytes", ErrCorruptState, id, len(enc))
	}
	if enc[0] != 0 {
		return "", fmt.Errorf("%w: app %d metadata leads with %d", ErrCorruptState, id, enc[0])
	}
	return string(enc[29:]), nil
}

func encodeAssetMeta(a *Asset) []byte {
	enc := make([]byte, 0, 20+8+4+8+4+len(a.Name)+len(a.UnitName))
	enc = append(enc, a.Creator[:]...)
	enc = append(enc, u64b(a.Total)...)
	var dec [4]byte
	binary.BigEndian.PutUint32(dec[:], a.Decimals)
	enc = append(enc, dec[:]...)
	enc = append(enc, u64b(a.CreateAt)...)
	var nl [4]byte
	binary.BigEndian.PutUint32(nl[:], uint32(len(a.Name)))
	enc = append(enc, nl[:]...)
	enc = append(enc, a.Name...)
	return append(enc, a.UnitName...)
}

func decodeAssetMeta(id uint64, enc []byte) (*Asset, error) {
	if len(enc) < 44 || uint64(binary.BigEndian.Uint32(enc[40:44])) > uint64(len(enc)-44) {
		return nil, fmt.Errorf("%w: asset %d metadata is %d bytes", ErrCorruptState, id, len(enc))
	}
	a := &Asset{ID: id}
	copy(a.Creator[:], enc[:20])
	a.Total = binary.BigEndian.Uint64(enc[20:28])
	a.Decimals = binary.BigEndian.Uint32(enc[28:32])
	a.CreateAt = binary.BigEndian.Uint64(enc[32:40])
	nl := binary.BigEndian.Uint32(enc[40:44])
	a.Name = string(enc[44 : 44+nl])
	a.UnitName = string(enc[44+nl:])
	return a, nil
}

// stateKV is the key/value surface the accessor layer runs on — the
// canonical trie and the round's overlay both implement it, so the ledger
// semantics below exist exactly once.
type stateKV interface {
	Get(mstate.Key) ([]byte, bool)
	Put(mstate.Key, []byte)
	Delete(mstate.Key)
	Has(mstate.Key) bool
}

// ledgerKV implements the avm.Ledger surface (plus app and asset
// accessors) over any stateKV. The back-pointer to the canonical ledger
// serves the app table, the sequence counters and the round clock.
type ledgerKV struct {
	kv  stateKV
	led *ledger
}

// app returns the program of application id, nil when there is none.
func (v *ledgerKV) app(id uint64) *avm.Program { return v.led.apps[id] }

// GlobalGet implements avm.Ledger.
func (v *ledgerKV) GlobalGet(appID uint64, key string) (avm.Value, bool) {
	if v.app(appID) == nil {
		return avm.Value{}, false
	}
	enc, ok := v.kv.Get(globalKey(appID, key))
	if !ok {
		return avm.Value{}, false
	}
	return decodeValue(enc), true
}

// GlobalPut implements avm.Ledger.
func (v *ledgerKV) GlobalPut(appID uint64, key string, val avm.Value) {
	if v.app(appID) == nil {
		return
	}
	v.kv.Put(globalKey(appID, key), encodeValue(val))
}

// GlobalDel implements avm.Ledger.
func (v *ledgerKV) GlobalDel(appID uint64, key string) {
	if v.app(appID) == nil {
		return
	}
	v.kv.Delete(globalKey(appID, key))
}

// Balance implements avm.Ledger.
func (v *ledgerKV) Balance(addr chain.Address) uint64 {
	enc, ok := v.kv.Get(balKey(addr))
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint64(enc)
}

// setBalance force-writes a balance; a zero write keeps an explicit
// entry, matching the map backend's semantics.
func (v *ledgerKV) setBalance(addr chain.Address, val uint64) {
	v.kv.Put(balKey(addr), u64b(val))
}

// credit adds to a balance. A zero credit of an absent account is a
// no-op: it must not conjure a phantom zero-balance entry into the
// state root. Nothing can be reverted where credit runs (funding, the
// round's fee-sink credit), so a balance saturates at 2⁶⁴−1 µALGO rather
// than wrap.
func (v *ledgerKV) credit(addr chain.Address, val uint64) {
	if val == 0 {
		return
	}
	bal := v.Balance(addr)
	v.setBalance(addr, bal+min(val, math.MaxUint64-bal))
}

// ErrBalanceOverflow reports a payment that would carry the receiver's
// balance past 2⁶⁴−1 µALGO.
var ErrBalanceOverflow = errors.New("algorand: balance overflow")

// Pay implements avm.Ledger (used for inner transactions and payments).
// It checks both ends before it writes either.
func (v *ledgerKV) Pay(from, to chain.Address, amount uint64) error {
	if v.Balance(from) < amount {
		return fmt.Errorf("%w: %s has %d µALGO, needs %d",
			avm.ErrInsufficientBalance, from, v.Balance(from), amount)
	}
	if have := v.Balance(to); from != to && have > math.MaxUint64-amount {
		return fmt.Errorf("%w: %s has %d µALGO, cannot take %d",
			ErrBalanceOverflow, to, have, amount)
	}
	v.setBalance(from, v.Balance(from)-amount)
	v.setBalance(to, v.Balance(to)+amount)
	return nil
}

// AppAddress implements avm.Ledger: the application escrow address, a
// pure function of the ID.
func (v *ledgerKV) AppAddress(appID uint64) chain.Address {
	h := polcrypto.Hash([]byte(fmt.Sprintf("appID:%d", appID)))
	return chain.AddressFromBytes(h[:])
}

// LatestTimestamp implements avm.Ledger.
func (v *ledgerKV) LatestTimestamp() uint64 { return v.led.time }

func (v *ledgerKV) assetExists(id uint64) bool { return v.kv.Has(assetMetaKey(id)) }

// holding returns addr's balance of an asset (0 when not opted in; use
// assetOptedIn to distinguish).
func (v *ledgerKV) holding(addr chain.Address, id uint64) uint64 {
	enc, ok := v.kv.Get(holdKey(addr, id))
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint64(enc)
}

func (v *ledgerKV) setHolding(addr chain.Address, id, val uint64) {
	v.kv.Put(holdKey(addr, id), u64b(val))
}

func (v *ledgerKV) assetOptedIn(addr chain.Address, id uint64) bool {
	return v.kv.Has(holdKey(addr, id))
}

// assetOptIn records a zero holding — the opt-in marker.
func (v *ledgerKV) assetOptIn(addr chain.Address, id uint64) {
	if !v.assetOptedIn(addr, id) {
		v.setHolding(addr, id, 0)
	}
}

// assetTransfer moves ASA units. Error texts are part of the receipt
// stream, so they must stay stable across backends.
func (v *ledgerKV) assetTransfer(id uint64, from, to chain.Address, amount uint64) error {
	if !v.assetExists(id) {
		return fmt.Errorf("%w: %d", ErrAssetNotFound, id)
	}
	if !v.assetOptedIn(to, id) {
		return fmt.Errorf("%w: %s / asset %d", ErrNotOptedIn, to, id)
	}
	if have := v.holding(from, id); have < amount {
		return fmt.Errorf("%w: %s holds %d of asset %d, needs %d",
			ErrAssetShort, from, have, id, amount)
	}
	v.setHolding(from, id, v.holding(from, id)-amount)
	v.setHolding(to, id, v.holding(to, id)+amount)
	return nil
}

// ledger is the on-chain state: a Merkle trie over balances, application
// state and assets, plus the table of applications with their parsed
// programs. It implements avm.Ledger.
type ledger struct {
	ledgerKV
	t *mstate.Trie
	// apps maps every application to its parsed Program (the trie's
	// metadata leaf stores only the source): it is the one record of which
	// apps exist. createApp adds an entry with the leaf, uncreate drops the
	// entries of a rolled-back group, and Open fills it from the loaded
	// leaves, so it always matches the trie.
	apps map[uint64]*avm.Program
	// programs holds one parsed Program per distinct TEAL source the chain
	// has deployed, so every app of a factory points at the same one. It
	// is written where apps is — creations and Open. Nothing is evicted:
	// a Program is a pure function of its source, and the table is bounded
	// by the sources this chain has seen.
	programs map[string]*avm.Program

	appSeq   uint64
	assetSeq uint64
	time     uint64
}

func newLedger() *ledger {
	l := &ledger{
		t:        mstate.New(),
		apps:     make(map[uint64]*avm.Program),
		programs: make(map[string]*avm.Program),
	}
	l.ledgerKV = ledgerKV{kv: l.t, led: l}
	return l
}

// program returns the parsed form of src, parsing it the first time this
// ledger sees it: executeGroup for a creation, and Open.
func (l *ledger) program(src string) (*avm.Program, error) {
	if p, ok := l.programs[src]; ok {
		return p, nil
	}
	p, err := avm.Parse(src)
	if err != nil {
		return nil, err
	}
	l.programs[p.Source] = p
	return p, nil
}

var _ avm.Ledger = (*ledger)(nil)

// ledgerOverlay is a write-buffer view over the ledger: an mstate.Overlay
// buffers its writes and reads the rest from the canonical trie, and every
// ledger semantic — value encodings, opt-in markers, pay errors — comes
// from the shared ledgerKV accessor layer, so the overlay cannot drift
// from the canonical ledger.
type ledgerOverlay struct {
	ledgerKV
	ov *mstate.Overlay
}

// fork opens a write-buffer overlay over the canonical ledger, which must
// not be written while the overlay is read (mstate.NewOverlay).
func (l *ledger) fork() *ledgerOverlay {
	ov := mstate.NewOverlay(l.t)
	return &ledgerOverlay{ledgerKV{kv: ov, led: l}, ov}
}

// adopt replays an overlay's buffered writes onto the canonical trie;
// every key holds its final value, so replay order does not matter.
func (l *ledger) adopt(child *ledgerOverlay) { child.ov.CommitTo(l.t) }

// root is the Merkle root of the ledger state.
func (l *ledger) root() chain.Hash32 { return chain.Hash32(l.t.Root()) }

// createApp registers a new application and returns its ID; assetCreate
// below mints an asset. Both advance the canonical ledger's sequence
// counter even when they write through an overlay (createApp also fills
// the app table), and uncreate takes both back when the group fails.
func (v *ledgerKV) createApp(creator chain.Address, prog *avm.Program, round uint64) uint64 {
	l := v.led
	l.appSeq++
	v.kv.Put(appMetaKey(l.appSeq), encodeAppMeta(creator, round, prog.Source))
	l.apps[l.appSeq] = prog
	return l.appSeq
}

// assetCreate mints a new asset; the creator holds the entire supply and
// is implicitly opted in.
func (v *ledgerKV) assetCreate(creator chain.Address, name, unit string, total uint64, decimals uint32, round uint64) *Asset {
	l := v.led
	l.assetSeq++
	a := &Asset{
		ID: l.assetSeq, Creator: creator, Name: name, UnitName: unit,
		Total: total, Decimals: decimals, CreateAt: round,
	}
	v.kv.Put(assetMetaKey(a.ID), encodeAssetMeta(a))
	v.setHolding(creator, a.ID, total)
	return a
}

// uncreate rewinds the sequence counters to an earlier reading and drops
// the app table entries of the apps created in between: their trie
// entries went with the failed group's overlay, and a later creation
// reusing an ID may carry different source. It writes nothing when no
// creation happened.
func (l *ledger) uncreate(appSeq, assetSeq uint64) {
	for ; l.appSeq > appSeq; l.appSeq-- {
		delete(l.apps, l.appSeq)
	}
	l.assetSeq = assetSeq
}
