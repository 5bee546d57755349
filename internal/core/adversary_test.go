package core

import (
	"testing"

	"agnopol/internal/algorand"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
)

// attackWorld is one deployment of the paper's contract, pol-report.pol,
// with a report attached and the reward pool funded: the state each
// adversary row starts from.
type attackWorld struct {
	conn    Connector
	h       *Handle
	did     uint64
	reward  uint64
	creator *Account
}

func newAttackWorld(t *testing.T, f Family) *attackWorld {
	t.Helper()
	compiled, err := CompilePoL()
	if err != nil {
		t.Fatal(err)
	}
	w := &attackWorld{conn: NewConnector(f), did: 111}
	w.reward = rewardFor(w.conn)
	if w.creator, err = w.conn.NewAccount(10); err != nil {
		t.Fatal(err)
	}
	funder, err := w.conn.NewAccount(10)
	if err != nil {
		t.Fatal(err)
	}
	if w.h, _, err = w.conn.Deploy(w.creator, compiled, []lang.Value{
		lang.BytesValue([]byte("8FPHF8VV+X2")), lang.Uint64Value(w.did), lang.Uint64Value(w.reward),
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.conn.Invoke(w.creator, w.h, "insert_data", CallOpts{EscrowFund: true},
		lang.BytesValue([]byte("report")), lang.Uint64Value(w.did)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.conn.Invoke(funder, w.h, "insert_money", CallOpts{Pay: MaxUsers * w.reward},
		lang.Uint64Value(MaxUsers*w.reward)); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestAdversaryTable is the table of attack classes ROADMAP item 1 asks
// for, written once over Family and run on both families. Each row states
// the outcome the code has today; a fix flips its row's accepted flag
// rather than adding a test.
func TestAdversaryTable(t *testing.T) {
	for _, row := range []struct {
		name string
		// attack runs against a fresh world and reports whether the chain
		// accepted it.
		attack   func(t *testing.T, w *attackWorld) bool
		accepted bool
	}{{
		// ROADMAP item 1, "a gap the table will show first": verify(did,
		// wallet) in pol-report.pol checks neither the caller nor the
		// witness signature, and ErrNotVerifier is raised only by the Go
		// client core.Verifier. So a stranger — funded, never designated
		// as verifier by the CA — can call verify directly through
		// Connector.Invoke and point the reward at its own wallet. Today
		// the chain accepts that and pays the stranger; the fix belongs in
		// pol-report-v2.pol (pol-report.pol is the paper's artefact).
		name: "stranger releases the reward to itself",
		attack: func(t *testing.T, w *attackWorld) bool {
			stranger, err := w.conn.NewAccount(10)
			if err != nil {
				t.Fatal(err)
			}
			before := w.conn.Balance(stranger).Base.Uint64()
			v, op, err := w.conn.Invoke(stranger, w.h, "verify", CallOpts{},
				lang.Uint64Value(w.did), lang.AddressValue(stranger.Address()))
			if err != nil {
				return false
			}
			if v.Addr != stranger.Address() {
				t.Fatalf("verify returned wallet %x, want the stranger's", v.Addr)
			}
			if got, want := w.conn.Balance(stranger).Base.Uint64(), before-op.Fee.Base.Uint64()+w.reward; got != want {
				t.Fatalf("stranger holds %d after verify, want %d: the reward did not reach its wallet", got, want)
			}
			return true
		},
		accepted: true,
	}} {
		for _, f := range []Family{
			eth.NewClient(eth.NewChain(eth.Goerli(), 71)),
			algorand.NewClient(algorand.NewChain(algorand.Testnet(), 71)),
		} {
			t.Run(row.name+"/"+f.Name(), func(t *testing.T) {
				if got := row.attack(t, newAttackWorld(t, f)); got != row.accepted {
					t.Fatalf("attack accepted = %v, want %v", got, row.accepted)
				}
			})
		}
	}
}
