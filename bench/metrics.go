package main

import (
	"strings"
	"time"
)

// layerMetrics folds the traced worlds of a pass into the per-layer metrics.
// Span totals and counters are summed over the worlds first, so every value
// is a mean over all traced operations. A layer the workload does not run is
// left unset and emitted as 0.
func layerMetrics(spec *benchSpec, workload string, cfg config, worlds []*worldResult, overheadPct float64) (map[string]metricValue, error) {
	m := newMetricSet(spec.PerLayer)
	st := make(map[string]spanStat)
	counts := make(map[string]float64)
	var ops, attempted, samples float64
	var window stopwatch
	var build spanStat
	for _, w := range worlds {
		for name, s := range statsByName(w.spans, w.opSlow) {
			st[name] = addStat(st[name], s)
		}
		for name, v := range w.counts {
			counts[name] += v
		}
		build = addStat(build, w.buildSign)
		ops += float64(w.ops())
		attempted += float64(w.attempted)
		samples += float64(len(w.opWalls))
		window.wall += w.window.wall
		window.allocBytes += w.window.allocBytes
		window.allocs += w.window.allocs
		window.gcCycles += w.window.gcCycles
		window.gcPause += w.window.gcPause
	}
	// perOp is a span family's total time as a mean per operation, in µs.
	perOp := func(d time.Duration) float64 { return ratio(us(d), ops) }

	// The root span of every operation: a proof on the lifecycles, a round
	// on the soaks. Shares are fractions of its summed wall time.
	rootName := "op"
	if _, ok := st["round"]; ok {
		rootName = "round"
	}
	root := st[rootName]
	share := func(d time.Duration) float64 { return ratio(float64(d), float64(root.Total)) }

	switch workload {
	case "lifecycle_evm", "lifecycle_algorand":
		m.set("core.upload_report_us", perOp(st["core.upload_report"].Total))
		m.set("core.discover_witness_us", perOp(st["core.discover_witness"].Total))
		m.set("core.request_proof_us", perOp(st["core.request_proof"].Total))
		m.set("core.submit_proof_self_us", perOp(st["core.submit_proof"].Self))
		m.set("core.fund_contract_self_us", perOp(st["core.fund_contract"].Self))
		m.set("core.verify_prover_self_us", perOp(st["core.verify_prover"].Self))
		m.set("core.accepted_ratio", ratio(counts["verify"], attempted))
		m.set("core.hops_mean", ratio(counts["hops"], counts["deploy"]+counts["attach"]))
		var coreSelf, connTotal time.Duration
		var connCalls int
		for name, s := range st {
			switch {
			case strings.HasPrefix(name, "core."):
				coreSelf += s.Self
			case strings.HasPrefix(name, "connector."):
				connTotal += s.Total
				connCalls += s.Count
			}
		}
		m.set("core.offchain_share", share(coreSelf))
		m.set("connector.deploy_us", perOp(st["connector.deploy"].Total))
		m.set("connector.invoke_insert_data_us", perOp(st["connector.invoke_insert_data"].Total))
		m.set("connector.invoke_insert_money_us", perOp(st["connector.invoke_insert_money"].Total))
		m.set("connector.invoke_verify_us", perOp(st["connector.invoke_verify"].Total))
		m.set("connector.read_us", perOp(st["connector.read"].Total))
		m.set("connector.calls_per_op", ratio(float64(connCalls), ops))
		m.set("connector.retries_per_op", ratio(counts["retries"], ops))
		m.set("connector.share", share(connTotal))
		family := "eth"
		if workload == "lifecycle_algorand" {
			family = "algorand"
		}
		m.set(family+".blocks_per_op", ratio(counts["blocks"], ops))
		for _, kind := range []string{"deploy", "attach", "verify"} {
			m.set("chain.sim_"+kind+"_s_mean", ratio(counts["sim_"+kind+"_s"], counts[kind]))
			m.set("chain.fee_eur_"+kind+"_mean", ratio(counts["fee_"+kind+"_eur"], counts[kind]))
		}

	case "soak_evm", "soak_algorand", "persist_evm":
		pfx, perBlock := "eth", "eth.txs_per_block"
		if workload == "soak_algorand" {
			pfx, perBlock = "algorand", "algorand.groups_per_block"
		}
		included := counts["included"]
		m.set("client.build_sign_us_per_tx", ratio(us(build.Total), float64(build.Count)))
		m.set(pfx+".submit_batch_us_per_tx", ratio(us(st[pfx+".submit_batch"].Total), included))
		m.set(pfx+".submit_batch_share", share(st[pfx+".submit_batch"].Total))
		m.set(pfx+".step_us_per_tx", ratio(us(st[pfx+".step"].Total), included))
		m.set(pfx+".step_share", share(st[pfx+".step"].Total))
		m.set(pfx+".drain_steps", counts["drain_steps"])
		m.set(perBlock, ratio(included, counts["blocks"]))
		m.set(pfx+".parallel_batches", counts["parallel_batches"])
		m.set(pfx+".shard_util_min", ratio(counts["shard_util_min"], float64(len(worlds))))
	}

	if workload == "persist_evm" {
		rounds, nWorlds := samples, float64(len(worlds))
		m.set("eth.checkpoint_us_per_round", ratio(us(st["eth.checkpoint"].Total), rounds))
		m.set("mstate.commit_ms_per_round", ratio(ms(st["mstate.commit"].Total), rounds))
		m.set("mstate.commit_share", share(st["mstate.commit"].Total))
		m.set("mstate.load_ms", ratio(ms(st["mstate.load"].Total), nWorlds))
		m.set("mstate.load_nodes_per_s", ratio(counts["nodes_total"], st["mstate.load"].Total.Seconds()))
		m.set("diskstore.commit_ms_per_round", ratio(ms(st["diskstore.commit"].Total), rounds))
		m.set("diskstore.commit_share", share(st["diskstore.commit"].Total))
		m.set("diskstore.open_ms", ratio(ms(st["diskstore.open"].Total), nWorlds))
		m.set("diskstore.nodes_per_round", ratio(counts["nodes_window"], rounds))
		m.set("diskstore.bytes_per_round", ratio(counts["disk_bytes_window"], rounds))
		m.set("diskstore.nodes_total", ratio(counts["nodes_total"], nWorlds))
		m.set("diskstore.segments", ratio(counts["segments"], nWorlds))
		m.set("diskstore.bytes_per_op", ratio(counts["disk_bytes"], ops))
		m.set("persist.reopen_ms", ratio(counts["reopen_s"]*1e3, nWorlds))
		m.set("eth.readback_us_per_account", ratio(us(st["eth.readback"].Total), counts["users"]))
	}

	m.set("bench.op_wall_ms_p99", percentile(pooledOpWalls(worlds), 99))
	m.set("bench.samples", samples)
	m.set("bench.window_s", window.wall.Seconds())
	m.set("bench.host_slowdown", hostSlowdown(worlds))
	m.set("bench.ops_per_s_raw", medianOf(worlds, (*worldResult).rawOpsPerSec))
	m.set("bench.alloc_kb_per_op", ratio(float64(window.allocBytes)/1024, ops))
	m.set("bench.allocs_per_op", ratio(float64(window.allocs), ops))
	m.set("bench.gc_cycles", float64(window.gcCycles))
	m.set("bench.gc_pause_ms", ms(window.gcPause))
	m.set("bench.peak_rss_mb", peakRSSMiB())
	m.set("bench.trace_overhead_pct", overheadPct)
	m.set("bench.check_share", share(st["bench.check"].Total))
	m.set("bench.unattributed_share", share(root.Self))

	// The probes time single primitives, outside every window, to explain
	// the shares above (verify_us × txs ≈ submit_batch time, and so on).
	probes, err := runProbes(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		m.set(name, v)
	}
	return m.finish(true)
}

func addStat(a, b spanStat) spanStat {
	return spanStat{Count: a.Count + b.Count, Total: a.Total + b.Total, Self: a.Self + b.Self}
}
