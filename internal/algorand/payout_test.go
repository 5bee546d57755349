package algorand

import (
	"fmt"
	"runtime"
	"testing"

	"agnopol/internal/chain"
)

// payToApp sends 1 000 µALGO from its escrow to the wallet its caller
// names in the first argument, through an inner payment: what an area
// application does when it releases a reward.
const payToApp = `
txn ApplicationID
bz create
itxn_begin
txna ApplicationArgs 0
itxn_field Receiver
int 1000
itxn_field Amount
itxn_submit
create:
int 1
return`

// TestTwoAreasPayOneWallet: two area applications each pay 1 000 µALGO to
// a wallet holding 1 000 000, called by two users in one round. At every
// SetShards width and on one, two and four cores the wallet ends at
// 1 002 000 µALGO, the µALGO Fund minted is all in some balance, and the
// digest is the width-1 run's. The control pays two wallets, 1 001 000
// each. The wallet is named only in the calls' arguments, so nothing
// about the two groups says they touch one account (ROADMAP item 15).
func TestTwoAreasPayOneWallet(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, shared := range []bool{true, false} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			var ref chain.Hash32
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for shards := 1; shards <= 8; shards++ {
					d := payTwoWallets(t, shards, shared)
					if procs == 1 && shards == 1 {
						ref = d
					} else if d != ref {
						t.Fatalf("procs=%d shards=%d: digest diverges from the width-1 run", procs, shards)
					}
				}
			}
		})
	}
}

// payTwoWallets certifies one round in which two users call one area
// application each, and checks the wallets' balances and conservation.
func payTwoWallets(t *testing.T, shards int, shared bool) chain.Hash32 {
	t.Helper()
	c := NewChain(Testnet(), 15)
	c.SetShards(shards)
	cl := NewClient(c)

	var minted uint64
	holders := []chain.Address{c.feeSink}
	fund := func(addr chain.Address, micro uint64) {
		c.Fund(addr, micro)
		minted += micro
		holders = append(holders, addr)
	}
	rng := chain.NewRand(15).Fork("test:keys")
	deployer := chain.NewAccount(rng)
	fund(deployer.Address, 10_000_000)
	wallets := []chain.Address{chain.AddressFromBytes([]byte("wallet")), chain.AddressFromBytes([]byte("wallet 2"))}
	if shared {
		wallets[1] = wallets[0]
	}
	fund(wallets[0], 1_000_000)
	if !shared {
		fund(wallets[1], 1_000_000)
	}
	var groups []Group
	for _, wallet := range wallets {
		_, app, err := cl.createApp(deployer, payToApp, nil)
		if err != nil {
			t.Fatal(err)
		}
		fund(c.AppAddress(app), 1_000_000)
		user := chain.NewAccount(rng)
		fund(user.Address, 1_000_000)
		call := &Tx{Type: TxAppCall, Sender: user.Address, Fee: MinFee, AppID: app, Args: [][]byte{wallet[:]}}
		call.Sign(user)
		groups = append(groups, Group{call})
	}
	stepBatch(t, c, groups)
	for _, g := range groups {
		if rcpt, _ := c.Receipt(g.Hash()); rcpt.Reverted {
			t.Fatalf("shards=%d: a payout reverted: %s", shards, rcpt.RevertMsg)
		}
	}
	want := uint64(1_001_000)
	paid := wallets
	if shared {
		want, paid = 1_002_000, wallets[:1]
	}
	for _, w := range paid {
		if got := c.Balance(w).Base.Uint64(); got != want {
			t.Errorf("shards=%d: wallet %s holds %d µALGO, want %d", shards, w, got, want)
		}
	}
	var sum uint64
	for _, h := range holders {
		sum += c.Balance(h).Base.Uint64()
	}
	if sum != minted {
		t.Errorf("shards=%d: balances sum to %d µALGO, Fund minted %d", shards, sum, minted)
	}
	return c.Digest()
}
