package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"time"

	"agnopol/contracts"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
	"agnopol/internal/polcrypto"
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
	// The precompiled check_in must actually carry precompile CALLs: spot-
	// check the cheap invariant that compiling the same source without
	// Precompiles yields different code.
	prog, err := lang.ParseSource(contracts.PoLVerify)
	if err != nil {
		t.Fatal(err)
	}
	interp, err := lang.Compile(prog, lang.Options{MaxBytesLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c.EVMCode, interp.EVMCode) {
		t.Fatal("precompiled and interpreted EVM code are identical — the lowering did not trigger")
	}
	if c.TEALSource == interp.TEALSource {
		t.Fatal("precompiled and interpreted TEAL are identical — the lowering did not trigger")
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
