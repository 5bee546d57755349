package chain

import (
	"sort"
	"time"

	"agnopol/internal/faults"
	"agnopol/internal/obs"
)

// Item is what a family queues for inclusion: a signed transaction (eth) or
// an atomic group (algorand).
type Item interface {
	// Verify checks the signatures; it must be safe to call concurrently
	// with other items' Verify.
	Verify() error
	// Hash identifies the eventual receipt.
	Hash() Hash32
}

// Pending is one queued item.
type Pending[T Item] struct {
	Item T
	// Hash is Item.Hash(), computed once at submission (or Restore) so
	// that block building never re-hashes the item. A checkpoint does not
	// carry it: Restore computes it again.
	Hash Hash32 `json:"-"`
	// Submitted is when the item becomes includable: its admission time,
	// pushed back by any injected propagation stall.
	Submitted time.Duration
	// Delayed marks an item stalled by an injected tx_delay fault;
	// inclusion counts as the recovery.
	Delayed bool
}

// Pool is a chain's pending pool (eth's mempool, algorand's pending
// groups): signature verification, the family's admission check, the
// tx_drop / tx_delay fault draws and the queue itself. Admission past
// signature verification is strictly serial in submission order, so
// batched and one-by-one submission build the same pool and consume the
// same fault streams.
type Pool[T Item] struct {
	clock *Clock
	// site labels the pool's fault draws; maxStall is the longest injected
	// propagation stall.
	site     string
	maxStall time.Duration
	// admit is the family's admission check (fees, nonces, balances),
	// run on a verified item before it is queued.
	admit func(T) error

	entries []*Pending[T]
	flt     *faults.Injector

	submitted, included *obs.Counter
	depth               *obs.Gauge
	latency, stall      *obs.Histogram
}

// NewPool builds an empty pool on the chain's clock.
func NewPool[T Item](clock *Clock, site string, maxStall time.Duration, admit func(T) error) *Pool[T] {
	return &Pool[T]{clock: clock, site: site, maxStall: maxStall, admit: admit}
}

// SetFaults attaches a fault injector; nil turns injection off.
func (p *Pool[T]) SetFaults(inj *faults.Injector) { p.flt = inj }

// Faults returns the attached fault injector, nil when off.
func (p *Pool[T]) Faults() *faults.Injector { return p.flt }

// Instrument registers the series both families keep on reg, each with
// the chain's label: the admission and inclusion counters
// <prefix>_<items>_submitted_total and <prefix>_<items>_included_total,
// the depth gauge <prefix>_<pool>_depth, the inclusion latency histogram
// <prefix>_inclusion_latency_seconds, and the histogram of injected stalls
// faults_injected_delay_seconds on the same buckets. help holds the help
// texts of the first four. A nil registry detaches the pool.
func (p *Pool[T]) Instrument(reg *obs.Registry, label obs.Label, prefix, items, pool string, buckets []float64, help [4]string) {
	if reg == nil {
		p.submitted, p.included, p.depth, p.latency, p.stall = nil, nil, nil, nil, nil
		return
	}
	named := func(name, text string) string {
		reg.Help(name, text)
		return name
	}
	p.submitted = reg.Counter(named(prefix+"_"+items+"_submitted_total", help[0]), label)
	p.included = reg.Counter(named(prefix+"_"+items+"_included_total", help[1]), label)
	p.depth = reg.Gauge(named(prefix+"_"+pool+"_depth", help[2]), label)
	p.latency = reg.Histogram(named(prefix+"_inclusion_latency_seconds", help[3]), buckets, label)
	p.stall = reg.Histogram(named("faults_injected_delay_seconds", "Injected tx_delay propagation stalls."), buckets, label)
}

// Len reports the pool depth.
func (p *Pool[T]) Len() int { return len(p.entries) }

// Entries is the queue in its current order; callers must not modify it.
func (p *Pool[T]) Entries() []*Pending[T] { return p.entries }

// Submit verifies, admits and queues one item.
func (p *Pool[T]) Submit(item T) (Hash32, error) {
	if err := item.Verify(); err != nil {
		return Hash32{}, err
	}
	return p.queue(item, item.Hash())
}

// SubmitBatch is Submit for a batch: signature verification — the dominant
// per-item cost — and hashing fan out at sh's width, which counts the batch
// in its ParallelBatches when it runs on more than one goroutine, then
// admission runs serially in slice order. Result slot i is the hash or
// error of items[i].
func (p *Pool[T]) SubmitBatch(items []T, sh *Sharder) ([]Hash32, []error) {
	hashes := make([]Hash32, len(items))
	errs := make([]error, len(items))
	FanOut(len(items), sh.batchWidth(len(items)), func(i int) {
		if errs[i] = items[i].Verify(); errs[i] == nil {
			hashes[i] = items[i].Hash()
		}
	})
	for i, item := range items {
		if errs[i] == nil {
			hashes[i], errs[i] = p.queue(item, hashes[i])
		}
	}
	return hashes, errs
}

// queue runs admission past signature verification; hash is item.Hash().
func (p *Pool[T]) queue(item T, hash Hash32) (Hash32, error) {
	if err := p.admit(item); err != nil {
		return Hash32{}, err
	}
	if err := p.flt.Try(faults.ClassTxDrop, p.site); err != nil {
		// The node accepted the RPC but the item never propagates; the
		// submitter's retry layer recovers by resubmitting.
		return Hash32{}, err
	}
	e := &Pending[T]{Item: item, Hash: hash, Submitted: p.clock.Now()}
	if hit, mag := p.flt.Draw(faults.ClassTxDelay, p.site); hit {
		stall := time.Duration(mag * float64(p.maxStall))
		e.Submitted += stall
		e.Delayed = true
		p.stall.ObserveDuration(stall)
	}
	p.entries = append(p.entries, e)
	p.submitted.Inc()
	p.depth.Set(float64(len(p.entries)))
	return hash, nil
}

// Sort stably reorders the queue. less compares the entries at two
// positions of the queue as it stood before the call, so a family can
// compute per-entry sort keys once, into a slice aligned with Entries,
// instead of per comparison; the returned permutation says where each
// entry came from — the entry now at position k was at order[k] — which is
// where its key still is.
func (p *Pool[T]) Sort(less func(i, j int) bool) (order []int) {
	order = make([]int, len(p.entries))
	if len(order) < 2 {
		return order
	}
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return less(order[a], order[b]) })
	sorted := make([]*Pending[T], len(order))
	for k, i := range order {
		sorted[k] = p.entries[i]
	}
	p.entries = sorted
	return order
}

// Take removes and returns, in queue order, the entries pick accepts — the
// ones going into the block being built at time at, which counts as their
// inclusion and, for a delayed entry, as the recovery of its fault; the
// rest stay queued in order. pick sees every entry once, with its queue
// position.
func (p *Pool[T]) Take(at time.Duration, pick func(i int, e *Pending[T]) bool) []*Pending[T] {
	var sel []*Pending[T]
	rest := p.entries[:0]
	for i, e := range p.entries {
		if !pick(i, e) {
			rest = append(rest, e)
			continue
		}
		sel = append(sel, e)
		if e.Delayed {
			p.flt.Recover(faults.ClassTxDelay)
		}
		if p.included != nil {
			p.included.Inc()
			p.latency.Observe((at - e.Submitted).Seconds())
		}
	}
	clear(p.entries[len(rest):])
	p.entries = rest
	p.depth.Set(float64(len(rest)))
	return sel
}

// Restore replaces the queue with checkpointed entries, hashing each.
func (p *Pool[T]) Restore(entries []*Pending[T]) {
	for _, e := range entries {
		e.Hash = e.Item.Hash()
	}
	p.entries = entries
}
