package avm

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"testing"
)

// Precompile pseudo-op tests (DESIGN.md §14): the AVM exposes the shared
// native registry as fixed-cost opcodes.

func TestSha256PartsOp(t *testing.T) {
	// Hashing N parts must equal hashing the concatenation — the fusion
	// property the TEAL backend's digest lowering relies on.
	src := "byte \"proof-\"\nbyte \"of-\"\nbyte \"location\"\nsha256_parts 3\n" +
		"byte \"proof-of-location\"\nsha256\n==\nreturn"
	res, _ := exec(t, src, TxContext{AppID: 1, BudgetTxns: 2})
	if res.Err != nil || !res.Approved {
		t.Fatalf("sha256_parts != sha256 of concat: %+v", res)
	}
}

func TestSha256PartsBadCount(t *testing.T) {
	for _, src := range []string{
		"byte \"x\"\nsha256_parts 0\nreturn",
		"byte \"x\"\nsha256_parts 17\nreturn",
	} {
		res, _ := exec(t, src, TxContext{AppID: 1, BudgetTxns: 2})
		if res.Err == nil {
			t.Fatalf("out-of-range part count must fail: %q", src)
		}
	}
}

func TestKeccak256OpIsSystemHash(t *testing.T) {
	// The system digest is SHA-256 throughout; keccak256 is an alias at
	// keccak's op cost.
	src := "byte \"payload\"\nkeccak256\nbyte \"payload\"\nsha256\n==\nreturn"
	res, _ := exec(t, src, TxContext{AppID: 1, BudgetTxns: 2})
	if res.Err != nil || !res.Approved {
		t.Fatalf("keccak256 != sha256: %+v", res)
	}
}

func TestOLCContainsOp(t *testing.T) {
	cases := []struct {
		cell, code string
		want       bool
	}{
		{"8FQFCX", "8FQFCXGV+XX", true},
		{"8FQFCX", "8FQFCX", true},
		{"8FQFCX", "9FQFCXGV+XX", false},
		{"8FQFCXGV+XX", "8FQFCX", false},
	}
	for _, c := range cases {
		src := "byte \"" + c.cell + "\"\nbyte \"" + c.code + "\"\nolc_contains\nreturn"
		res, _ := exec(t, src, TxContext{AppID: 1, BudgetTxns: 2})
		if res.Err != nil || res.Approved != c.want {
			t.Fatalf("contains(%q, %q) = %v err=%v, want %v", c.cell, c.code, res.Approved, res.Err, c.want)
		}
	}
}

func TestEd25519VerifyOp(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := sha256.Sum256([]byte("avm check-in"))
	sig := ed25519.Sign(priv, msg[:])

	// TEAL argument order: data, signature, pubkey.
	src := "txna ApplicationArgs 0\ntxna ApplicationArgs 1\ntxna ApplicationArgs 2\ned25519verify\nreturn"
	tx := TxContext{AppID: 1, Args: [][]byte{msg[:], sig, pub}, BudgetTxns: 4}
	res, _ := exec(t, src, tx)
	if res.Err != nil || !res.Approved {
		t.Fatalf("valid signature rejected: %+v", res)
	}

	bad := append([]byte(nil), sig...)
	bad[0] ^= 1
	tx.Args = [][]byte{msg[:], bad, pub}
	res, _ = exec(t, src, tx)
	if res.Err != nil || res.Approved {
		t.Fatalf("corrupted signature accepted: %+v", res)
	}

	// A single-transaction budget (700) cannot afford the 1900-cost op —
	// exactly the real AVM's pooling requirement.
	tx.Args = [][]byte{msg[:], sig, pub}
	tx.BudgetTxns = 1
	res, _ = exec(t, src, tx)
	if res.Err == nil {
		t.Fatal("ed25519verify must exceed a single-txn budget")
	}
}

// TestPseudoOpCosts pins the assembled Instr.Cost of every pseudo-op to the
// registry's schedule, including the arg-aware sha256_parts pricing.
func TestPseudoOpCosts(t *testing.T) {
	cases := []struct {
		src  string
		want uint64
	}{
		{"ed25519verify", 1900},
		{"keccak256", 130},
		{"olc_contains", 20},
		{"sha256_parts 1", 36},
		{"sha256_parts 16", 51},
	}
	for _, c := range cases {
		p := mustParse(t, c.src)
		if got := p.Instrs[0].Cost; got != c.want {
			t.Fatalf("cost of %q = %d, want %d", c.src, got, c.want)
		}
	}
}
