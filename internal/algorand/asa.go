package algorand

import (
	"errors"

	"agnopol/internal/chain"
)

// Algorand Standard Assets — the §2.8 extension: "in the future will be
// possible to create a new token and transfer it, using the Algorand
// Standard Assets (ASAs), instead of using the native cryptocurrency."
// The crowdsensing application can mint its own reward token (e.g. GREEN)
// and pay provers in it.
//
// Asset descriptions and holdings live in the state trie (see ledger.go:
// assetMetaKey / holdKey).

// Asset is an ASA's immutable configuration.
type Asset struct {
	ID       uint64
	Creator  chain.Address
	Name     string
	UnitName string
	Total    uint64
	Decimals uint32
	CreateAt uint64 // round
}

// ASA errors.
var (
	ErrAssetNotFound  = errors.New("algorand: asset not found")
	ErrNotOptedIn     = errors.New("algorand: receiver not opted in to asset")
	ErrAssetShort     = errors.New("algorand: insufficient asset balance")
	ErrAlreadyOptedIn = errors.New("algorand: already opted in")
)

// AssetBalance returns an account's holding of an asset (0 when not opted
// in).
func (c *Chain) AssetBalance(addr chain.Address, assetID uint64) uint64 {
	return c.led.holding(addr, assetID)
}

// CreateAsset submits an asset-creation transaction and returns the new
// asset ID.
func (cl *Client) CreateAsset(acct *Account, name, unit string, total uint64, decimals uint32) (*chain.Receipt, uint64, error) {
	return cl.create(acct, &Tx{
		Type: TxAssetCreate, Sender: acct.Address, Fee: MinFee,
		AssetName: name, AssetUnit: unit, Amount: total, AssetDecimals: decimals,
	}, "asset creation")
}

// OptInAsset opts the account in to an asset (a zero self-transfer on the
// real network).
func (cl *Client) OptInAsset(acct *Account, assetID uint64) (*chain.Receipt, error) {
	return cl.send(acct, &Tx{Type: TxAssetOptIn, Sender: acct.Address, Fee: MinFee, AssetID: assetID}, "opt-in")
}

// TransferAsset moves ASA units.
func (cl *Client) TransferAsset(acct *Account, assetID uint64, to chain.Address, amount uint64) (*chain.Receipt, error) {
	return cl.send(acct, &Tx{
		Type: TxAssetTransfer, Sender: acct.Address, Fee: MinFee,
		AssetID: assetID, Receiver: to, Amount: amount,
	}, "asset transfer")
}
