package core

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
	"agnopol/internal/polcrypto"
	"agnopol/internal/precompile"
)

// TestShippedContractsGolden pins what the five shipped .pol sources compile
// to: sha256 of the EVM bytecode and of the TEAL source, the worst-case
// deploy gas, and every method's TotalEVMGas in analysis order (ctor, APIs,
// views). The constants were captured at commit c8fdf67 from the hand-built
// Go AST twins (core.Build*Program) this table replaced, so a pass means the
// sources execute bit-identically to the deleted builders. A deliberate
// change to a contract or to code generation re-captures its row.
func TestShippedContractsGolden(t *testing.T) {
	for _, g := range []struct {
		name      string
		compile   func() (*lang.Compiled, error)
		evmSHA    string
		tealSHA   string
		deployGas uint64
		methodGas []uint64
	}{
		{"pol-report", CompilePoL,
			"6430fc63697df96537be52106f1ab97b584113f4ff95414eb978c4438778573a",
			"9da60c9e5ddae20c4274f9d5811190257897f2e23cefdff3fa1804ef3e9ecc60",
			785945, []uint64{554265, 446858, 23946, 125193, 64517, 2320, 4418, 4418, 39215}},
		{"pol-report-v2", CompilePoLV2,
			"14093b393e753e1130a7eaa40fdbb1f06ccffa6f3f0acb3b7e4b04d4e21c16b1",
			"049982b5ae14096ab374a3fe39b22e98fb0e1810f001f22a3c38497430e2f430",
			835345, []uint64{599561, 449003, 23961, 170835, 64280, 2335, 4433, 4433, 4433, 4433}},
		{"pol-verify", CompileVerify,
			"50acb3702c1561cccdfa6b05c2ade85f0f5cce1e470688a86e5f871b29634dcd",
			"87ec4e586cb8d6e2305612e4b5878087de4b048bf8c2df25eb888d02eb363f84",
			759785, []uint64{486849, 418348, 178272, 4358, 39155}},
		{"did-registry", CompileDIDRegistry,
			"a572b0143ccdc72031953b8760956041663d7886d322e65702e18017b6e087c6",
			"1591f6f74f5e8cfaf5cedc1ec9f4c89b692888793def9fe39250567b1accc872",
			149902, []uint64{77414, 122525, 4328}},
		{"area-checkin", CompileCheckin,
			"e1a6aa04cceb02878a72d4d85e1812d55bc6cd1d15de37575cdecb1e2f451f77",
			"1d85f7dd2a63a5bf23357d73c383a36b04551f4d2b6721086c5e0e08d00973ea",
			574442, []uint64{486834, 72891, 4343, 39140}},
	} {
		t.Run(g.name, func(t *testing.T) {
			c, err := g.compile()
			if err != nil {
				t.Fatal(err)
			}
			if c.Program.Name != g.name {
				t.Errorf("compiled %q, want %q", c.Program.Name, g.name)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(c.EVMCode)); got != g.evmSHA {
				t.Errorf("sha256(EVMCode) = %s, want %s", got, g.evmSHA)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(c.TEALSource))); got != g.tealSHA {
				t.Errorf("sha256(TEALSource) = %s, want %s", got, g.tealSHA)
			}
			if got := c.Analysis.EVMDeployGas; got != g.deployGas {
				t.Errorf("EVMDeployGas = %d, want %d", got, g.deployGas)
			}
			var gas []uint64
			for _, m := range c.Analysis.Methods {
				gas = append(gas, m.TotalEVMGas())
			}
			if !slices.Equal(gas, g.methodGas) {
				t.Errorf("per-method TotalEVMGas = %v, want %v", gas, g.methodGas)
			}
		})
	}
}

// TestPoLProgramShape checks the surface the off-chain actors rely on, and
// that the seat count written as a literal in both report sources is
// MaxUsers (the thesis uses 4 per contract).
func TestPoLProgramShape(t *testing.T) {
	c, err := CompilePoL()
	if err != nil {
		t.Fatal(err)
	}
	p := c.Program
	for _, api := range []string{"insert_data", "insert_money", "verify", "close"} {
		if p.FindAPI(api) == nil {
			t.Errorf("missing API %q", api)
		}
	}
	for _, v := range []string{"getCtcBalance", "getReward", "getAvailableSits", "getPosition"} {
		if _, ok := p.FindView(v); !ok {
			t.Errorf("missing view %q", v)
		}
	}
	if MaxUsers != 4 {
		t.Fatalf("MaxUsers = %d, thesis uses 4 per contract", MaxUsers)
	}

	v2, err := CompilePoLV2()
	if err != nil {
		t.Fatal(err)
	}
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 7))
	creator, err := conn.NewAccount(10)
	if err != nil {
		t.Fatal(err)
	}
	pos, did, reward := lang.BytesValue([]byte("8FPHF8VV+X2")), lang.Uint64Value(1), lang.Uint64Value(1000)
	deadline := lang.Uint64Value(uint64((conn.Now() + time.Hour) / time.Second))
	for _, d := range []struct {
		compiled *lang.Compiled
		args     []lang.Value
	}{
		{c, []lang.Value{pos, did, reward}},
		{v2, []lang.Value{pos, did, reward, reward, deadline}},
	} {
		h, _, err := conn.Deploy(creator, d.compiled, d.args)
		if err != nil {
			t.Fatal(err)
		}
		sits, err := conn.View(h, "getAvailableSits")
		if err != nil {
			t.Fatal(err)
		}
		if sits.Uint != MaxUsers {
			t.Errorf("%s deploys with %d seats, want MaxUsers = %d", d.compiled.Program.Name, sits.Uint, MaxUsers)
		}
	}
}

func TestVerifyProgramShape(t *testing.T) {
	c, err := CompileVerify()
	if err != nil {
		t.Fatal(err)
	}
	for _, api := range []string{"register", "check_in"} {
		if c.Program.FindAPI(api) == nil {
			t.Errorf("missing API %q", api)
		}
	}
	// check_in's digest and containment lower to the precompiles: pseudo-ops
	// in the TEAL, reserved-address CALLs that move the natives' counters
	// on the EVM.
	for _, op := range []string{"sha256_parts 3", "olc_contains"} {
		if !strings.Contains(c.TEALSource, op) {
			t.Errorf("pol-verify TEAL has no %q", op)
		}
	}
	conn := NewEVMConnector(eth.NewChain(eth.Goerli(), 7))
	acct, err := conn.NewAccount(10)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := conn.Deploy(acct, c, []lang.Value{lang.BytesValue([]byte("8FQFCX"))})
	if err != nil {
		t.Fatal(err)
	}
	loc, nonce, cid := []byte("8FQFCXGV+XX:48.8583,2.2944"), []byte("nonce-1"), []byte("bafy-cid")
	commitment := polcrypto.Hash(loc, nonce, cid)
	if _, _, err := conn.Invoke(acct, h, "register", CallOpts{}, lang.Uint64Value(7), lang.BytesValue(commitment[:])); err != nil {
		t.Fatal(err)
	}
	natives := []*precompile.Precompiled{
		precompile.ByID(precompile.IDSha256), precompile.ByID(precompile.IDBytesEqual), precompile.ByID(precompile.IDOLCContains),
	}
	before := make([]uint64, len(natives))
	for i, p := range natives {
		before[i] = p.StatsOf().Calls
	}
	v, _, err := conn.Invoke(acct, h, "check_in", CallOpts{}, lang.Uint64Value(7),
		lang.BytesValue(loc), lang.BytesValue(nonce), lang.BytesValue(cid), lang.BytesValue([]byte("8FQFCXGV+XX")))
	if err != nil || v.Uint != 1 {
		t.Fatalf("check_in = %d, %v; want 1 verified", v.Uint, err)
	}
	for i, p := range natives {
		if p.StatsOf().Calls == before[i] {
			t.Errorf("an EVM check_in did not call the %s precompile", p.Name)
		}
	}
}

// TestVerifyCommitmentShape pins the off-chain commitment recipe to the
// on-chain digest: digest(loc ++ nonce ++ cid) over Bytes parts is the
// plain SHA-256 of the concatenation on both backends.
func TestVerifyCommitmentShape(t *testing.T) {
	loc, nonce, cid := []byte("8FQFCXGV+XX"), []byte("n0"), []byte("bafy...")
	want := polcrypto.Hash(append(append(append([]byte{}, loc...), nonce...), cid...))
	got := polcrypto.Hash(loc, nonce, cid)
	if want != got {
		t.Fatal("variadic Hash must equal Hash of the concatenation")
	}
}

func TestCheckinContractBothChains(t *testing.T) {
	compiled, err := CompileCheckin()
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Report.Failures != 0 {
		t.Fatalf("checkin verification failures:\n%s", compiled.Report)
	}
	conns := []Connector{
		NewEVMConnector(eth.NewChain(eth.Goerli(), 51)),
		NewAlgorandConnector(algorand.NewChain(algorand.Testnet(), 51)),
	}
	for _, conn := range conns {
		conn := conn
		t.Run(conn.Name(), func(t *testing.T) {
			creator, err := conn.NewAccount(10)
			if err != nil {
				t.Fatal(err)
			}
			user, err := conn.NewAccount(10)
			if err != nil {
				t.Fatal(err)
			}
			area := "8FPHF8VV+X2"
			h, _, err := conn.Deploy(creator, compiled, []lang.Value{
				lang.BytesValue([]byte(area)),
			})
			if err != nil {
				t.Fatal(err)
			}

			v, _, err := conn.Invoke(user, h, "checkin",
				CallOpts{EscrowFund: true},
				lang.Uint64Value(42), lang.Uint64Value(3))
			if err != nil {
				t.Fatalf("checkin: %v", err)
			}
			if v.Uint != 1 {
				t.Fatalf("first checkin returned %d, want 1", v.Uint)
			}
			v, _, err = conn.Invoke(user, h, "checkin", CallOpts{},
				lang.Uint64Value(42), lang.Uint64Value(4))
			if err != nil {
				t.Fatal(err)
			}
			if v.Uint != 2 {
				t.Fatalf("second checkin returned %d, want 2", v.Uint)
			}

			if got, err := conn.View(h, "getCheckins"); err != nil || got.Uint != 2 {
				t.Fatalf("getCheckins = %+v (%v), want 2", got, err)
			}
			if got, _, err := conn.ReadMap(h, "last_seen", 42); err != nil || got.Uint != 4 {
				t.Fatalf("last_seen[42] = %+v (%v), want 4", got, err)
			}
		})
	}
}
