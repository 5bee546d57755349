package chain

// Sharded block building: pending transactions are partitioned into
// conflict components (transactions that may read or write the same state),
// components are packed onto N shards, and each shard executes its
// components serially while shards run concurrently. Because components on
// different shards touch disjoint state, the merged block is bit-identical
// to a serial execution in canonical order — regardless of GOMAXPROCS or
// the shard count. Both chain simulators (internal/eth, internal/algorand)
// embed a Sharder and apply their blocks through RunSharded; what a family
// supplies is its conflict keys, a weight, and an executor over a forkable
// state view.

// conflictKind namespaces conflict keys so that, e.g., an account key and a
// contract key for the same 20-byte value stay distinct resources.
type conflictKind uint8

// Conflict-key namespaces.
const (
	conflictAccount conflictKind = iota
	conflictContract
	conflictApp
	conflictAsset
	conflictGlobal
)

// ConflictKey names one state resource a transaction may touch. Two
// transactions sharing any key must execute serially in canonical order;
// transactions sharing no key commute and may run on different shards.
type ConflictKey struct {
	kind conflictKind
	addr Address // set for account/contract keys
	id   uint64  // set for app/asset keys
}

// AccountKey is the conflict key of an account's balance and nonce (a
// sender or a value receiver).
func AccountKey(a Address) ConflictKey { return ConflictKey{kind: conflictAccount, addr: a} }

// ContractKey is the conflict key of a contract's code and storage.
func ContractKey(a Address) ConflictKey { return ConflictKey{kind: conflictContract, addr: a} }

// AppKey is the conflict key of an Algorand application's state.
func AppKey(id uint64) ConflictKey { return ConflictKey{kind: conflictApp, id: id} }

// AssetKey is the conflict key of an Algorand standard asset.
func AssetKey(id uint64) ConflictKey { return ConflictKey{kind: conflictAsset, id: id} }

// GlobalKey is the conflict key of chain-global state (creation sequence
// counters): every transaction carrying it conflicts with every other one
// that does.
func GlobalKey() ConflictKey { return ConflictKey{kind: conflictGlobal} }

// partition groups n items (canonically ordered transactions) into conflict
// components: the connected components of the graph whose edges join items
// sharing a conflict key. Components are returned ordered by their smallest
// member index, and each component lists its members in ascending index
// order — so executing components in slice order, members in order,
// reproduces the canonical serial order within every component.
func partition(n int, keysOf func(i int) []ConflictKey) [][]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Keep the smaller index as root so roots are canonical.
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	owner := make(map[ConflictKey]int)
	for i := 0; i < n; i++ {
		for _, k := range keysOf(i) {
			if first, ok := owner[k]; ok {
				union(i, first)
			} else {
				owner[k] = i
			}
		}
	}
	members := make(map[int][]int, n)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, seen := members[r]; !seen {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}
	// Roots are the smallest index of their component, and were appended in
	// ascending order of first appearance, so the result is ordered by
	// smallest member already.
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, members[r])
	}
	return out
}

// assign packs conflict components onto at most shards bins, balancing the
// total weight per bin. Components are placed in descending-weight order
// (ties broken by smaller first-member index) onto the currently lightest
// bin (ties broken by lower bin index) — the classic LPT heuristic, made
// deterministic by the tie-breaks. The returned slice has exactly shards
// entries; a bin holds its components in the order assigned.
func assign(components [][]int, shards int, weight func(i int) uint64) [][][]int {
	if shards < 1 {
		shards = 1
	}
	type comp struct {
		idx int // position in components, the tie-break
		w   uint64
	}
	order := make([]comp, len(components))
	for ci, members := range components {
		var w uint64
		for _, i := range members {
			w += weight(i)
		}
		order[ci] = comp{idx: ci, w: w}
	}
	// Insertion sort by descending weight, ascending idx on ties: component
	// counts per block are small, and stability plus explicit tie-breaks
	// keep the assignment independent of sort internals.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && (order[j].w > order[j-1].w ||
			(order[j].w == order[j-1].w && order[j].idx < order[j-1].idx)); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	bins := make([][][]int, shards)
	loads := make([]uint64, shards)
	for _, c := range order {
		best := 0
		for b := 1; b < shards; b++ {
			if loads[b] < loads[best] {
				best = b
			}
		}
		bins[best] = append(bins[best], components[c.idx])
		loads[best] += c.w
	}
	return bins
}

// ShardStats accumulates per-shard execution tallies across blocks: what
// the benchmark's shard_util_min and parallel_batches are computed from.
type ShardStats struct {
	Txs []uint64 // transactions (or tx groups) executed per shard
	Gas []uint64 // execution gas (or opcode cost) per shard
	// ParallelBatches counts block applications that actually fanned out
	// to more than one shard; serial blocks bypass the worker pool.
	ParallelBatches uint64
}

// newShardStats sizes the tallies for n shards.
func newShardStats(n int) *ShardStats {
	if n < 1 {
		n = 1
	}
	return &ShardStats{Txs: make([]uint64, n), Gas: make([]uint64, n)}
}

// record adds one shard's tallies for a block.
func (s *ShardStats) record(shard int, txs, gas uint64) {
	if s == nil || shard < 0 || shard >= len(s.Txs) {
		return
	}
	s.Txs[shard] += txs
	s.Gas[shard] += gas
}

// Clone copies the tallies; a nil receiver clones to nil.
func (s *ShardStats) Clone() *ShardStats {
	if s == nil {
		return nil
	}
	return &ShardStats{
		Txs:             append([]uint64(nil), s.Txs...),
		Gas:             append([]uint64(nil), s.Gas...),
		ParallelBatches: s.ParallelBatches,
	}
}

// Sharder is a chain's execution fan-out setting plus the tallies of what
// each shard ran. Chains embed it, which gives them SetShards, Shards and
// ShardStats; the zero value is the serial configuration.
type Sharder struct {
	shards int
	stats  *ShardStats
}

// SetShards configures how many execution shards a block may fan out to;
// n <= 1 keeps the serial path. The setting changes scheduling only —
// block contents are identical at every value.
func (s *Sharder) SetShards(n int) {
	s.shards = max(n, 1)
	s.stats = newShardStats(s.shards)
}

// Shards returns the configured shard count.
func (s *Sharder) Shards() int { return max(s.shards, 1) }

// ShardStats returns a copy of the per-shard execution tallies accumulated
// since SetShards, or nil when sharding was never configured.
func (s *Sharder) ShardStats() *ShardStats { return s.stats.Clone() }

// RunSharded applies one block's n selected items and then runs the block's
// tail. exec(st, i) executes item i against the state view st and returns
// the gas it used; it must write only to st and to slot i of slices sized
// before the call. With more than one shard configured and more than one
// conflict component among the items, components are packed onto shards,
// every shard gets a fork() of the state — a private view plus the function
// that merges it back — and shards run concurrently (each its components in
// canonical order); otherwise every item runs in order against canon.
// Either way the Sharder's tallies record what ran where.
//
// The tail is what a block still owes once its items have executed, in two
// halves that share nothing: settle, the state side (the forks are merged
// one by one just before it; it applies the block's deferred credits and
// hashes the state root), and record, the receipt side (folding receipts,
// the block's hash list, telemetry), which must not read the state. A
// block that fanned out runs the two side by side; any other block — one
// item, one component, one shard, one core — runs settle, then record, on
// the calling goroutine.
func RunSharded[S any](sh *Sharder, n int, keysOf func(i int) []ConflictKey, weightOf func(i int) uint64,
	canon S, fork func() (st S, merge func()), exec func(st S, i int) uint64, settle, record func()) {
	var bins [][][]int
	if sh.shards > 1 && n > 1 {
		if comps := partition(n, keysOf); len(comps) > 1 {
			bins = assign(comps, min(sh.shards, len(comps)), weightOf)
		}
	}
	merges := make([]func(), len(bins))
	if bins == nil {
		var gas uint64
		for i := 0; i < n; i++ {
			gas += exec(canon, i)
		}
		if n > 0 {
			sh.stats.record(0, uint64(n), gas)
		}
	} else {
		forks := make([]S, len(bins))
		for si := range forks {
			forks[si], merges[si] = fork()
		}
		txs := make([]uint64, len(bins))
		gas := make([]uint64, len(bins))
		FanOut(len(bins), len(bins), func(si int) {
			for _, comp := range bins[si] {
				for _, i := range comp {
					gas[si] += exec(forks[si], i)
					txs[si]++
				}
			}
		})
		for si := range bins {
			sh.stats.record(si, txs[si], gas[si])
		}
		sh.stats.ParallelBatches++
	}
	// A block that ran on canon has no bins, and FanOut runs a width of
	// zero inline.
	FanOut(2, len(bins), func(half int) {
		if half == 1 {
			record()
			return
		}
		for _, merge := range merges {
			merge()
		}
		settle()
	})
}
