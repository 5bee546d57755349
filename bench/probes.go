package main

import (
	"fmt"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/lang"
	"agnopol/internal/polcrypto"
	"agnopol/internal/vmbench"
)

// runProbes times single primitives at fixed iteration counts. They run in
// traced passes only, after the worlds, and explain the layer shares: an
// ed25519 verification per admitted transaction, a signature or VRF
// evaluation per consensus participant per block, one VM execution per
// transaction. Like every timing they are in reference-host time: each is
// divided by the host slowdown probed just before and after it.
func runProbes(seed uint64, scale float64) (map[string]float64, error) {
	out := make(map[string]float64)
	// count shrinks an iteration count with -scale.
	count := func(n int) int { return scaled(n, scale, 8) }
	// each reports the mean µs of n calls.
	each := func(name string, n int, f func(i int)) {
		before := probe.slowdown(1)
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		d := time.Since(start)
		out[name] = us(d) / float64(n) / ((before + probe.slowdown(1)) / 2)
	}

	rng := chain.NewRand(seed).Fork("bench:probes")
	keys := make([]*polcrypto.KeyPair, count(256))
	each("polcrypto.keygen_us", len(keys), func(i int) { keys[i] = polcrypto.MustGenerateKeyPair(rng) })
	msgs := make([][32]byte, count(2048))
	sigs := make([][]byte, len(msgs))
	for i := range msgs {
		msgs[i] = polcrypto.Hash([]byte{byte(i), byte(i >> 8)})
	}
	each("polcrypto.sign_us", len(msgs), func(i int) { sigs[i] = keys[i%len(keys)].Sign(msgs[i][:]) })
	bad := 0
	each("polcrypto.verify_us", len(msgs), func(i int) {
		if !polcrypto.Verify(keys[i%len(keys)].Public, msgs[i][:], sigs[i]) {
			bad++
		}
	})
	if bad > 0 {
		return nil, fmt.Errorf("bench: %d probe signatures did not verify", bad)
	}
	each("polcrypto.vrf_eval_us", count(1024), func(i int) { polcrypto.VRFEvaluate(keys[i%len(keys)], msgs[i][:]) })

	var compiled *lang.Compiled
	var err error
	each("lang.compile_pol_ms", count(8), func(int) {
		if c, cerr := core.CompilePoL(); cerr != nil {
			err = cerr
		} else {
			compiled = c
		}
	})
	if err != nil {
		return nil, err
	}
	out["lang.compile_pol_ms"] /= 1e3
	api := compiled.Program.FindAPI("insert_data")
	args := []lang.Value{lang.BytesValue(make([]byte, 300)), lang.Uint64Value(42)}
	each("lang.encode_args_us", count(4096), func(int) {
		if _, eerr := lang.EncodeArgsEVM(api.Name, api.Params, args); eerr != nil {
			err = eerr
		}
	})
	if err != nil {
		return nil, err
	}

	before := probe.slowdown(1)
	vm, err := vmbench.Run(fmt.Sprintf("%dx", count(2000)), "")
	if err != nil {
		return nil, err
	}
	slow := (before + probe.slowdown(1)) / 2
	for _, w := range vm.Workloads {
		name, ok := map[string]string{
			"evm_deploy_attach":           "evm.deploy_attach_us",
			"evm_proof_verify_precompile": "evm.proof_verify_us",
			"avm_deploy_attach":           "avm.deploy_attach_us",
			"avm_proof_verify_precompile": "avm.proof_verify_us",
		}[w.Name]
		if ok && w.U256 != nil {
			out[name] = w.U256.NsPerOp / 1e3 / slow
		}
	}
	return out, nil
}
