package eth

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/mstate"
	"agnopol/internal/u256"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s must panic", what)
		}
	}()
	fn()
}

// newView is the state a view runs on (Client.view): the accessors over a
// write-buffer overlay of base.
func newView(base *state) *stateView { return &stateView{kv: mstate.NewOverlay(base.t)} }

// stateBackends returns each backend under test with a fresh world: the
// canonical trie-backed state and a view's overlay over one. Every state
// semantic must hold identically on both.
func stateBackends() map[string]func() *stateView {
	return map[string]func() *stateView{
		"state": func() *stateView { return &newState().stateView },
		"view":  func() *stateView { return newView(newState()) },
	}
}

// Regression: SubBalance/AddBalance used to materialize entries for
// accounts that did not exist — flipping AccountExists, entering the
// digest, and allowing negative balances to accrue silently. Balances are
// unsigned words now: the panic that refused a negative credit refuses a
// credit past 2^256-1.
func TestPhantomAccountInvariants(t *testing.T) {
	ghost := chain.AddressFromBytes([]byte("ghost"))
	funded := chain.AddressFromBytes([]byte("funded"))
	for name, mk := range stateBackends() {
		t.Run(name, func(t *testing.T) {
			st := mk()
			st.AddBalance(ghost, u256.Zero)
			if st.AccountExists(ghost) {
				t.Fatal("zero credit of an absent account must not create it")
			}
			mustPanic(t, "debit of absent account", func() {
				st.SubBalance(ghost, u256.One)
			})
			if st.AccountExists(ghost) {
				t.Fatal("failed debit must not create the account")
			}
			st.AddBalance(funded, u256.FromUint64(10))
			mustPanic(t, "credit past 2^256-1", func() {
				st.AddBalance(funded, u256.Zero.Sub(u256.FromUint64(10)))
			})
			mustPanic(t, "overdraft", func() {
				st.SubBalance(funded, u256.FromUint64(11))
			})
			st.SubBalance(funded, u256.Zero) // zero debit of existing: fine
			if st.GetBalance(funded) != u256.FromUint64(10) {
				t.Fatal("balance disturbed by failed operations")
			}
		})
	}
	// Phantom entries must also stay out of the state root.
	a, b := newState(), newState()
	a.AddBalance(ghost, u256.Zero)
	if a.Root() != b.Root() {
		t.Fatal("no-op credit changed the state root")
	}
}

// TestOverdraftIsATypedRejection drives the inputs closest to the three
// panics above, and every amount no 256-bit word holds, through a chain:
// each is refused at admission with a typed error, through Submit and
// through SubmitBatch alike, and the chain keeps producing blocks. The
// negative value and the negative tip were admitted before: the first then
// panicked in Step (the fee debit of an account that does not exist), the
// second priced gas below zero and credited its sender. A nil amount
// panicked in Sign, and in SubmitBatch's verification fan-out on a worker
// goroutine, where no caller could recover; a tip of 2^256 or more was
// admitted.
func TestOverdraftIsATypedRejection(t *testing.T) {
	c := newTestChain(t)
	c.SetShards(2)
	cl := NewClient(c)
	poor := c.NewAccount(eth(0.001))
	ghost := chain.NewAccount(chain.NewRand(7))
	to := chain.AddressFromBytes([]byte("to"))
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	// edited is an affordable transfer from poor with one field changed.
	edited := func(edit func(*Tx)) *Tx {
		tx := &Tx{
			From: poor.Address, To: &to, Value: big.NewInt(1), GasLimit: 21000,
			MaxFee: big.NewInt(10_000_000_000), MaxTip: big.NewInt(1_000_000_000),
		}
		edit(tx)
		tx.Sign(poor)
		return tx
	}
	for _, tc := range []struct {
		name string
		tx   *Tx
		want error
	}{
		{"value + maxFee × gas past the balance", cl.NewTx(poor, &to, eth(0.001), nil, 21000), ErrInsufficientEth},
		{"negative value from an absent account", cl.NewTx(ghost, &to, eth(-1), nil, 21000), ErrNegativeAmount},
		{"negative tip", edited(func(tx *Tx) { tx.MaxTip = big.NewInt(-1e18) }), ErrNegativeAmount},
		{"negative fee cap", edited(func(tx *Tx) { tx.MaxFee = big.NewInt(-1) }), ErrNegativeAmount},
		{"nil value", edited(func(tx *Tx) { tx.Value = nil }), ErrMissingAmount},
		{"nil fee cap", edited(func(tx *Tx) { tx.MaxFee = nil }), ErrMissingAmount},
		{"nil tip", edited(func(tx *Tx) { tx.MaxTip = nil }), ErrMissingAmount},
		{"value of 2^256", edited(func(tx *Tx) { tx.Value = two256 }), ErrAmountTooLarge},
		{"fee cap of 2^256", edited(func(tx *Tx) { tx.MaxFee = two256 }), ErrAmountTooLarge},
		{"tip of 2^256", edited(func(tx *Tx) { tx.MaxTip = two256 }), ErrAmountTooLarge},
		{"fee cap × gas just past 2^256", edited(func(tx *Tx) {
			tx.MaxFee = new(big.Int).Add(new(big.Int).Div(two256, big.NewInt(21000)), big.NewInt(1))
		}), ErrInsufficientEth},
	} {
		if _, err := c.Submit(tc.tx); !errors.Is(err, tc.want) {
			t.Errorf("%s: Submit = %v, want %v", tc.name, err, tc.want)
		}
		if _, errs := c.SubmitBatch([]*Tx{tc.tx}); !errors.Is(errs[0], tc.want) {
			t.Errorf("%s: SubmitBatch = %v, want %v", tc.name, errs[0], tc.want)
		}
	}
	before := c.Balance(poor.Address).Base
	c.Step()
	if c.PendingCount() != 0 || c.Balance(poor.Address).Base.Cmp(before) != 0 || c.Balance(ghost.Address).Base.Sign() != 0 {
		t.Fatal("a refused transaction reached the chain")
	}
}

// Regression: SetCode used to retain the caller's slice, so mutating the
// buffer after deployment silently rewrote stored contract code.
func TestSetCodeDefensiveCopy(t *testing.T) {
	addr := chain.AddressFromBytes([]byte("contract"))
	for name, mk := range stateBackends() {
		t.Run(name, func(t *testing.T) {
			st := mk()
			code := []byte{0x60, 0x01, 0x60, 0x02}
			st.SetCode(addr, code)
			code[0] = 0xff
			got, ok := st.Code(addr)
			if !ok || !bytes.Equal(got, []byte{0x60, 0x01, 0x60, 0x02}) {
				t.Fatalf("stored code aliased the caller's buffer: %x", got)
			}
		})
	}
}

// Regression: the digest used big.Int.Bytes(), which drops the sign — a
// balance of -5 hashed identically to +5. Balances were then encoded with
// an explicit sign byte (2 for a negative). They are unsigned words now,
// and the layout is kept so that no state root moves: a positive balance
// still encodes as 1 then its magnitude, zero as a lone 0, and a planted
// negative — what a signed balance encoded as — still reaches the root
// and the digest apart from its magnitude.
func TestDigestSignSensitivity(t *testing.T) {
	if got := encodeBalance(u256.FromUint64(0x1234)); !bytes.Equal(got, []byte{1, 0x12, 0x34}) {
		t.Fatalf("encodeBalance(0x1234) = %x, want 011234", got)
	}
	if got := encodeBalance(u256.Zero); !bytes.Equal(got, []byte{0}) {
		t.Fatalf("encodeBalance(0) = %x, want 00", got)
	}
	addr := chain.AddressFromBytes([]byte("signy"))
	plant := func(s *stateView, enc []byte) { s.kv.Put(balKey(addr), enc) }
	pos, neg := newState(), newState()
	plant(&pos.stateView, encodeBalance(u256.FromUint64(5)))
	plant(&neg.stateView, []byte{2, 5})
	if pos.Root() == neg.Root() {
		t.Fatal("sign-differing balances must produce different state roots")
	}

	mk := func(enc []byte) chain.Hash32 {
		c := newTestChain(t)
		plant(&c.st.stateView, enc)
		return c.Digest()
	}
	if mk(encodeBalance(u256.FromUint64(5))) == mk([]byte{2, 5}) {
		t.Fatal("sign-differing states must digest differently")
	}
}

// stateModel is the flat reference implementation the differential test
// compares the trie backends against.
type stateModel struct {
	bal   map[chain.Address]u256.Word
	nonce map[chain.Address]uint64
	code  map[chain.Address][]byte
	stor  map[chain.Address]map[chain.Hash32]chain.Hash32
}

func newStateModel() *stateModel {
	return &stateModel{
		bal:   make(map[chain.Address]u256.Word),
		nonce: make(map[chain.Address]uint64),
		code:  make(map[chain.Address][]byte),
		stor:  make(map[chain.Address]map[chain.Hash32]chain.Hash32),
	}
}

// TestDifferentialStateBackends drives one randomized op sequence through
// the flat model, the canonical state, a view's overlay (folded into its
// base now and then, so that the root can be compared), and a state whose
// trie is periodically committed to a store (which freezes its branches,
// so later writes copy them) — and demands identical reads along the way
// and identical state roots at the end.
func TestDifferentialStateBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	addrs := make([]chain.Address, 8)
	for i := range addrs {
		addrs[i] = chain.AddressFromBytes([]byte{byte(i + 1)})
	}
	keys := []chain.Hash32{{1}, {2}, {3}}

	model := newStateModel()
	flat := newState()
	ovBase := newState()
	ov := newView(ovBase)
	stored, store := newState(), mstate.NewMemStore()

	targets := []*stateView{&flat.stateView, ov, &stored.stateView}
	commit := func() { ov.kv.(*mstate.Overlay).CommitTo(ovBase.t) }

	apply := func(fn func(*stateView)) {
		for _, st := range targets {
			fn(st)
		}
	}

	for step := 0; step < 4000; step++ {
		a := addrs[rng.Intn(len(addrs))]
		switch rng.Intn(7) {
		case 0: // credit
			v := u256.FromUint64(uint64(rng.Int63n(1000)))
			apply(func(st *stateView) { st.AddBalance(a, v) })
			if cur, ok := model.bal[a]; ok || !v.IsZero() {
				model.bal[a] = cur.Add(v)
			}
		case 1: // debit within balance, only when the account exists
			cur, ok := model.bal[a]
			if !ok || cur.IsZero() {
				continue
			}
			v := u256.FromUint64(uint64(rng.Int63n(int64(cur.Uint64()) + 1)))
			apply(func(st *stateView) { st.SubBalance(a, v) })
			if !v.IsZero() {
				model.bal[a] = cur.Sub(v)
			}
		case 2: // nonce
			n := rng.Uint64() % 1000
			apply(func(st *stateView) { st.SetNonce(a, n) })
			model.nonce[a] = n
		case 3: // code
			code := make([]byte, 1+rng.Intn(16))
			rng.Read(code)
			apply(func(st *stateView) { st.SetCode(a, code) })
			model.code[a] = append([]byte(nil), code...)
		case 4: // delete code
			apply(func(st *stateView) { st.DeleteCode(a) })
			delete(model.code, a)
		case 5: // storage write (zero value deletes)
			k := keys[rng.Intn(len(keys))]
			var v chain.Hash32
			if rng.Intn(3) != 0 {
				v[0] = byte(rng.Intn(255) + 1)
			}
			apply(func(st *stateView) { st.SetStorage(a, k, v) })
			if v == (chain.Hash32{}) {
				delete(model.stor[a], k)
			} else {
				if model.stor[a] == nil {
					model.stor[a] = make(map[chain.Hash32]chain.Hash32)
				}
				model.stor[a][k] = v
			}
		case 6: // read checks against the model
			wantBal, ok := model.bal[a]
			wantCode, wantHasCode := model.code[a]
			for _, st := range targets {
				if st.GetBalance(a) != wantBal {
					t.Fatalf("step %d: balance mismatch for %x", step, a[:2])
				}
				if st.Nonce(a) != model.nonce[a] {
					t.Fatalf("step %d: nonce mismatch", step)
				}
				code, hasCode := st.Code(a)
				if hasCode != wantHasCode || !bytes.Equal(code, wantCode) {
					t.Fatalf("step %d: code mismatch", step)
				}
				for _, k := range keys {
					if st.GetStorage(a, k) != model.stor[a][k] {
						t.Fatalf("step %d: storage mismatch", step)
					}
				}
				exists := wantHasCode || ok
				if st.AccountExists(a) != exists {
					t.Fatalf("step %d: existence mismatch (want %v)", step, exists)
				}
			}
		}
		// Periodically fold the overlay into its base and stack a new one,
		// exercising commit mid-sequence rather than only at the end.
		if step%500 == 499 {
			commit()
			ov = newView(ovBase)
			targets[1] = ov
		}
		if step%300 == 299 {
			if _, err := stored.t.Commit(store); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit()

	flatRoot := flat.Root()
	if ovBase.Root() != flatRoot {
		t.Fatal("overlay-committed state root diverges from flat state")
	}
	if stored.Root() != flatRoot {
		t.Fatal("periodically committed state root diverges from flat state")
	}
	root, err := stored.t.Commit(store)
	if err != nil {
		t.Fatal(err)
	}
	if loaded, err := mstate.Load(store, root); err != nil || chain.Hash32(loaded.Root()) != flatRoot {
		t.Fatalf("the committed state does not load back to the flat root: %v", err)
	}
}
