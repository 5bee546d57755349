package mstate

// Overlay is a speculative write set over a base trie: a private fork
// that absorbs reads and writes, plus a journal of the final value of
// every touched key so the whole overlay can be replayed onto the base
// (or an ancestor overlay) in one pass at commit time. Discarding an
// overlay is dropping the pointer — the base never saw it.
//
// Overlays nest: Fork() opens a child whose writes fold into the parent
// via Adopt(), which is how a per-group transaction rolls back inside a
// per-shard overlay without disturbing the shard's other groups.
type Overlay struct {
	fork *Trie
	// writes journals the final state of every touched key: the leaf now
	// in the fork, or nil for a delete.
	writes map[Key]*leaf
}

// NewOverlay opens an overlay over base. The base must not be mutated
// while the overlay is live (snapshot it first if needed).
func NewOverlay(base *Trie) *Overlay {
	return &Overlay{fork: base.Snapshot(), writes: make(map[Key]*leaf)}
}

// Get reads through the overlay (own writes shadow the base).
func (o *Overlay) Get(k Key) ([]byte, bool) { return o.fork.Get(k) }

// Has reads through the overlay.
func (o *Overlay) Has(k Key) bool { return o.fork.Has(k) }

// Len is the number of live keys seen through the overlay.
func (o *Overlay) Len() int { return o.fork.Len() }

// Put writes k=v into the overlay only.
func (o *Overlay) Put(k Key, v []byte) {
	lf := newLeaf(k, v)
	o.fork.putLeaf(lf)
	o.writes[k] = lf
}

// Delete removes k in the overlay only.
func (o *Overlay) Delete(k Key) {
	o.fork.Delete(k)
	o.writes[k] = nil
}

// Fork opens a child overlay whose writes are invisible to o until
// Adopt.
func (o *Overlay) Fork() *Overlay { return NewOverlay(o.fork) }

// Adopt folds a committed child overlay's writes into o. The child must
// have been created by o.Fork and must not be used afterwards: o takes
// over its trie handle, and with it the branches the child wrote.
func (o *Overlay) Adopt(child *Overlay) {
	o.fork = child.fork
	for k, lf := range child.writes {
		o.writes[k] = lf
	}
}

// CommitTo replays the journal onto dst, which is normally the base the
// overlay was opened on (after any sibling overlays were checked for
// disjointness). Replay order does not matter: the journal holds final
// values, one entry per key — and dst links the journaled leaves
// themselves, so a committed value is copied once, at Put.
func (o *Overlay) CommitTo(dst *Trie) {
	for k, lf := range o.writes {
		if lf == nil {
			dst.Delete(k)
		} else {
			dst.putLeaf(lf)
		}
	}
}

// Touched returns the number of distinct keys written or deleted.
func (o *Overlay) Touched() int { return len(o.writes) }
