package agnopol

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation chapter (plus ablations for the design choices DESIGN.md calls
// out). Latency metrics are simulated seconds reported via b.ReportMetric;
// `go test -bench=.` therefore prints the same series the paper's tables
// and figures do. cmd/polbench renders the pretty versions.

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/evm"
	"agnopol/internal/geo"
	"agnopol/internal/hypercube"
	"agnopol/internal/lang"
	"agnopol/internal/olc"
	"agnopol/internal/sim"
)

// BenchmarkFig5_1_ConservativeAnalysis reproduces Fig. 5.1: the compiler's
// static verification and conservative resource analysis of the PoL
// contract.
func BenchmarkFig5_1_ConservativeAnalysis(b *testing.B) {
	var compiled *lang.Compiled
	for i := 0; i < b.N; i++ {
		c, err := core.CompilePoL()
		if err != nil {
			b.Fatal(err)
		}
		compiled = c
	}
	b.ReportMetric(float64(compiled.Report.Checked), "theorems")
	b.ReportMetric(float64(compiled.Report.Failures), "failures")
	b.ReportMetric(float64(compiled.Analysis.EVMDeployGas), "deploy_gas_worst")
	for _, m := range compiled.Analysis.Methods {
		if m.Name == "insert_data" {
			b.ReportMetric(float64(m.TotalEVMGas()), "attach_gas_worst")
		}
	}
}

func benchFigure(b *testing.B, chainName sim.ChainName, users int) {
	b.Helper()
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		r, err := sim.Execute(sim.Spec{Chain: chainName, Users: users, Seed: uint64(0x5eed + i)})
		if err != nil {
			b.Fatal(err)
		}
		res = r.Result
	}
	b.ReportMetric(res.DeploySummary.Mean, "deploy_mean_s")
	b.ReportMetric(res.DeploySummary.StdDev, "deploy_std_s")
	b.ReportMetric(res.AttachSummary.Mean, "attach_mean_s")
	b.ReportMetric(res.AttachSummary.StdDev, "attach_std_s")
	b.ReportMetric(res.DeployFees.Euros()+res.AttachFees.Euros(), "total_fees_eur")
}

// BenchmarkFig5_2_Ropsten8Users reproduces Fig. 5.2 (8 transactions on the
// erratic Ropsten testnet).
func BenchmarkFig5_2_Ropsten8Users(b *testing.B) {
	benchFigure(b, sim.ChainRopsten, 8)
}

// BenchmarkFig5_3_Goerli reproduces Fig. 5.3 a–d.
func BenchmarkFig5_3_Goerli(b *testing.B) {
	for _, users := range []int{8, 16, 24, 32} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			benchFigure(b, sim.ChainGoerli, users)
		})
	}
}

// BenchmarkFig5_4_Polygon reproduces Fig. 5.4 a–d.
func BenchmarkFig5_4_Polygon(b *testing.B) {
	for _, users := range []int{8, 16, 24, 32} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			benchFigure(b, sim.ChainPolygon, users)
		})
	}
}

// BenchmarkFig5_5_Algorand reproduces Fig. 5.5 a–d.
func BenchmarkFig5_5_Algorand(b *testing.B) {
	for _, users := range []int{8, 16, 24, 32} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			benchFigure(b, sim.ChainAlgorand, users)
		})
	}
}

func benchTable(b *testing.B, op string, users int) {
	b.Helper()
	results := make(map[sim.ChainName]*sim.Result)
	for i := 0; i < b.N; i++ {
		for _, c := range sim.AllChains {
			r, err := sim.Execute(sim.Spec{Chain: c, Users: users, Seed: uint64(0xab1e + i)})
			if err != nil {
				b.Fatal(err)
			}
			results[c] = r.Result
		}
	}
	t := sim.BuildTable(op, users, results)
	for _, row := range t.Rows {
		prefix := row.Testnet + "_"
		b.ReportMetric(row.Mean, prefix+"mean_s")
		b.ReportMetric(row.StdDev, prefix+"std_s")
		b.ReportMetric(row.Euro, prefix+"eur")
	}
}

// benchMatrix measures the experiment-matrix engine over the full Table
// 5.1–5.4 grid. The sequential/parallel pair gives the wall-clock
// speedup `polbench matrix` records into BENCH_parallel.json.
func benchMatrix(b *testing.B, parallel int) {
	b.Helper()
	var res *sim.MatrixResult
	for i := 0; i < b.N; i++ {
		r, err := sim.RunMatrix(sim.MatrixSpec{Seed: uint64(0xab1e + i), Parallel: parallel}, nil)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Elapsed.Seconds(), "wall_s")
	b.ReportMetric(float64(len(res.Runs)), "cells")
}

// BenchmarkMatrix_Sequential is the single-worker baseline.
func BenchmarkMatrix_Sequential(b *testing.B) { benchMatrix(b, 1) }

// BenchmarkMatrix_Parallel fans the grid out over GOMAXPROCS workers.
func BenchmarkMatrix_Parallel(b *testing.B) { benchMatrix(b, 0) }

// BenchmarkTable5_1_Deploy16 reproduces Table 5.1.
func BenchmarkTable5_1_Deploy16(b *testing.B) { benchTable(b, "deploy", 16) }

// BenchmarkTable5_2_Deploy32 reproduces Table 5.2.
func BenchmarkTable5_2_Deploy32(b *testing.B) { benchTable(b, "deploy", 32) }

// BenchmarkTable5_3_Attach16 reproduces Table 5.3.
func BenchmarkTable5_3_Attach16(b *testing.B) { benchTable(b, "attach", 16) }

// BenchmarkTable5_4_Attach32 reproduces Table 5.4.
func BenchmarkTable5_4_Attach32(b *testing.B) { benchTable(b, "attach", 32) }

// BenchmarkAblation_GeofenceGas reproduces the Victor-et-al related-work
// numbers (§1.7.1): storing a 100-grid-cell geofence in one transaction
// costs ≈20,000 gas per cell, ≈2.1M gas total (their 2,088,102). Our EVM
// applies the Fig. 1.4 schedule including the EIP-2929 cold-slot surcharge
// the 2018 measurement predates, so the per-cell figure lands at
// 20,000 + 2,100 + loop overhead.
func BenchmarkAblation_GeofenceGas(b *testing.B) {
	code, err := buildGeofenceStore(100)
	if err != nil {
		b.Fatal(err)
	}
	var total uint64
	for i := 0; i < b.N; i++ {
		st := evm.NewMemState()
		res := evm.Execute(evm.Context{State: st, GasLimit: 5_000_000}, code)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		total = res.GasUsed + evm.IntrinsicGas(nil, false)
	}
	b.ReportMetric(float64(total), "geofence100_gas")
	b.ReportMetric(float64(total-evm.GasTransaction)/100, "gas_per_cell")
}

// buildGeofenceStore emits a bytecode loop SSTOREing n grid cells.
func buildGeofenceStore(n uint64) ([]byte, error) {
	a := evm.NewAssembler()
	a.PushUint(0) // [i]
	a.Label("loop")
	a.Op(evm.DUP1).PushUint(n).Op(evm.SWAP1, evm.LT, evm.ISZERO) // i >= n ?
	a.PushLabel("end").Op(evm.JUMPI)
	a.PushUint(1).Op(evm.DUP2, evm.SSTORE) // cells[i] = 1
	a.PushUint(1).Op(evm.ADD)
	a.Jump("loop")
	a.Label("end").Op(evm.STOP)
	return a.Assemble()
}

// BenchmarkAblation_HypercubeDimension sweeps the DHT dimension r and
// reports the average lookup hops — the design-choice trade-off behind
// §2.5 (larger r: finer-grained areas, more hops).
func BenchmarkAblation_HypercubeDimension(b *testing.B) {
	for _, r := range []int{4, 6, 8, 10, 12} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				net := hypercube.MustNew(r)
				rng := chain.NewRand(uint64(7 + i))
				hops := 0
				for q := 0; q < 500; q++ {
					via := rng.Uint64n(1 << uint(r))
					lat := 44 + rng.Float64()
					lng := 11 + rng.Float64()
					code := olc.MustEncode(lat, lng, olc.DefaultCodeLength)
					bs, err := olc.ToBitString(code, r)
					if err != nil {
						b.Fatal(err)
					}
					h, err := net.Put(via, bs.Uint64(), code, &hypercube.Entry{OLC: code})
					if err != nil {
						b.Fatal(err)
					}
					hops += h
				}
				avg = float64(hops) / 500
			}
			b.ReportMetric(avg, "avg_hops")
			b.ReportMetric(float64(r), "max_hops")
		})
	}
}

// BenchmarkAblation_WarmColdStorage measures the EVM warm/cold access gap
// the fee analysis depends on (Fig. 1.4's EIP-2929 rows).
func BenchmarkAblation_WarmColdStorage(b *testing.B) {
	// SLOAD same slot twice: first cold (2100), second warm (100).
	code, err := buildSloadTwice()
	if err != nil {
		b.Fatal(err)
	}
	var gas uint64
	for i := 0; i < b.N; i++ {
		st := evm.NewMemState()
		res := evm.Execute(evm.Context{State: st, GasLimit: 100000}, code)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		gas = res.GasUsed
	}
	b.ReportMetric(float64(gas), "cold_plus_warm_gas")
}

func buildSloadTwice() ([]byte, error) {
	a := evm.NewAssembler()
	a.PushUint(7).Op(evm.SLOAD, evm.POP)
	a.PushUint(7).Op(evm.SLOAD, evm.POP)
	a.Op(evm.STOP)
	return a.Assemble()
}

// BenchmarkAblation_CongestionSweep sweeps the Goerli background-demand
// level and reports the attach confirmation latency — the mechanism behind
// the unstable Figs. 5.2–5.3.
func BenchmarkAblation_CongestionSweep(b *testing.B) {
	// Towards ~40M mean demand the outbid share approaches the block gas
	// limit and low-tip transactions start to drown entirely — the
	// saturation of the May-2022 episode in §1.4.1.3. Timed-out
	// transactions are reported as a saturation count, not a failure:
	// they ARE the phenomenon.
	for _, mean := range []float64{8e6, 24e6, 32e6, 40e6} {
		b.Run(fmt.Sprintf("demand=%.0fM", mean/1e6), func(b *testing.B) {
			var lat float64
			var saturated int
			for i := 0; i < b.N; i++ {
				cfg := eth.Goerli()
				cfg.CongestionMeanGas = mean
				// Fix demand (no fee-elasticity equilibration): the sweep
				// isolates the inclusion mechanism.
				cfg.CongestionElasticity = 0
				cfg.APIExtraDelayMean = 0
				cfg.APIExtraDelayJitter = 0
				c := eth.NewChain(cfg, uint64(3+i))
				cl := eth.NewClient(c)
				acct := c.NewAccount(big.NewInt(1e18))
				var sum float64
				confirmed := 0
				const n = 20
				saturated = 0
				for t := 0; t < n; t++ {
					to := chain.AddressFromBytes([]byte{byte(t)})
					tx := cl.NewTx(acct, &to, big.NewInt(1), nil, 21000)
					rcpt, err := cl.SubmitAndWait(tx)
					if errors.Is(err, eth.ErrTimeout) || errors.Is(err, eth.ErrInsufficientEth) {
						// Past saturation the base fee diverges (inelastic
						// demand above capacity is EIP-1559's runaway
						// regime): transactions either never confirm or
						// cost more than a whole ETH. Either way the rest
						// of the run is unusable.
						saturated += n - t
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					sum += (rcpt.Included - rcpt.Submitted).Seconds()
					confirmed++
				}
				if confirmed > 0 {
					lat = sum / float64(confirmed)
				}
			}
			b.ReportMetric(lat, "tx_latency_s")
			b.ReportMetric(float64(saturated), "timed_out_txs")
		})
	}
}

// BenchmarkAblation_QuorumSize sweeps the multi-witness quorum (the
// collusion-mitigation extension) and reports bundle size and verification
// cost: the security/overhead trade-off a deployment would tune.
func BenchmarkAblation_QuorumSize(b *testing.B) {
	for _, q := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			var bundleBytes int
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystem(uint64(50 + i))
				if err != nil {
					b.Fatal(err)
				}
				conn := core.NewEVMConnector(eth.NewChain(eth.PolygonMumbai(), uint64(50+i)))
				spot := geo.LatLng{Lat: 44.4949, Lng: 11.3426}
				prover, err := core.NewProver(sys, spot)
				if err != nil {
					b.Fatal(err)
				}
				acct, err := prover.EnsureAccount(conn, 10)
				if err != nil {
					b.Fatal(err)
				}
				verifier, err := core.NewVerifier(sys)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := verifier.EnsureAccount(conn, 10); err != nil {
					b.Fatal(err)
				}
				var witnesses []*core.Witness
				for w := 0; w < q; w++ {
					wit, err := core.NewWitness(sys, geo.Offset(spot, float64(w), 0))
					if err != nil {
						b.Fatal(err)
					}
					witnesses = append(witnesses, wit)
				}
				cid, err := prover.UploadReport(core.Report{Title: "q", Category: "env"})
				if err != nil {
					b.Fatal(err)
				}
				bundle, err := prover.RequestProofQuorum(witnesses, cid, acct.Address())
				if err != nil {
					b.Fatal(err)
				}
				sub, err := prover.SubmitProofQuorum(conn, bundle, 1000)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := verifier.FundContract(conn, sub.Handle, 1000); err != nil {
					b.Fatal(err)
				}
				ver, err := verifier.VerifyProverQuorum(conn, sub.Handle, prover.DID, q)
				if err != nil || !ver.Accepted {
					b.Fatalf("quorum verify failed: %v %+v", err, ver)
				}
				bundleBytes = len(bundle.Proofs)
			}
			b.ReportMetric(float64(bundleBytes), "proofs_per_bundle")
		})
	}
}

// BenchmarkAblation_UserScaling sweeps beyond the paper's 32 users on
// Algorand (the chain whose stability makes the sweep meaningful) to show
// per-user latency stays flat — the scalability argument of §2.4.
func BenchmarkAblation_UserScaling(b *testing.B) {
	for _, users := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			var attach float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Execute(sim.Spec{Chain: sim.ChainAlgorand, Users: users, Seed: uint64(60 + i)})
				if err != nil {
					b.Fatal(err)
				}
				attach = r.AttachSummary.Mean
			}
			b.ReportMetric(attach, "attach_mean_s")
		})
	}
}

// BenchmarkAblation_VerifyOperation measures the verification phase the
// paper excluded from its tables, supporting its justification ("the verify
// operation is similar to the attachment", §5.1) with numbers.
func BenchmarkAblation_VerifyOperation(b *testing.B) {
	for _, c := range []sim.ChainName{sim.ChainGoerli, sim.ChainPolygon, sim.ChainAlgorand} {
		b.Run(string(c), func(b *testing.B) {
			var r *sim.VerifyResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = sim.Execute(sim.Spec{Chain: c, Users: 8, Seed: uint64(70 + i), Verify: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.VerifySummary.Mean, "verify_mean_s")
			b.ReportMetric(r.AttachSummary.Mean, "attach_mean_s")
			b.ReportMetric(r.VerifyFees.Euros(), "verify_fees_eur")
		})
	}
}

// BenchmarkCompile measures end-to-end compilation (check + verify + both
// backends + analysis).
func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.CompilePoL(); err != nil {
			b.Fatal(err)
		}
	}
}
