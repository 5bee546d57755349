package mstate

// Overlay is a speculative write set over a base trie: a private fork
// that absorbs reads and writes, plus a journal of the final value of
// every touched key so the whole overlay can be replayed onto the base
// in one pass at commit time. Discarding an overlay is dropping the
// pointer — the base never saw it.
//
// A part of an overlay's writes rolls back through a revert point: Mark
// opens one, every write under it first records what it displaces, and
// Revert puts that back — which is how a per-group transaction fails
// inside a per-shard overlay without disturbing the shard's other groups.
type Overlay struct {
	fork *Trie
	// writes journals the final state of every touched key: the leaf now
	// in the fork, or nil for a delete.
	writes map[Key]*leaf
	// undo holds, oldest first, what each write since Mark displaced; it
	// is empty whenever no mark is open, and reused from mark to mark.
	undo   []displaced
	marked bool
}

// displaced is what one write under a mark replaced: the leaf the fork
// linked under the key (nil: none) and the key's writes entry (had: there
// was one — a nil entry journals a delete).
type displaced struct {
	key   Key
	leaf  *leaf
	write *leaf
	had   bool
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
	o.record(k)
	lf := newLeaf(k, v)
	o.fork.putLeaf(lf)
	o.writes[k] = lf
}

// Delete removes k in the overlay only.
func (o *Overlay) Delete(k Key) {
	o.record(k)
	o.fork.Delete(k)
	o.writes[k] = nil
}

// record notes, under an open mark, what a write to k is about to
// displace. An overlay nobody marks pays this one branch per write.
func (o *Overlay) record(k Key) {
	if o.marked {
		write, had := o.writes[k]
		o.undo = append(o.undo, displaced{k, o.fork.leafOf(k), write, had})
	}
}

// Mark opens a revert point: every write from here until Keep or Revert
// can be taken back. Marks do not nest. The writes still go straight into
// the overlay — a reader sees them before it is known whether they stay —
// so an overlay with an open mark belongs to one goroutine, which is how a
// shard executes its groups.
func (o *Overlay) Mark() {
	if o.marked {
		panic("mstate: Mark under an open mark")
	}
	o.marked = true
}

// Keep closes the mark and lets the writes under it stand.
func (o *Overlay) Keep() {
	o.marked = false
	o.undo = o.undo[:0]
}

// Revert closes the mark and takes back every write under it, newest
// first: the displaced leaves are linked again — the same leaves, through
// the fork's own token, so no branch another handle can see is written —
// and the writes entries restored, so CommitTo replays none of it. The
// trie's shape is a function of its key set alone: the root comes back
// bit for bit.
func (o *Overlay) Revert() {
	for i := len(o.undo) - 1; i >= 0; i-- {
		d := &o.undo[i]
		if d.leaf != nil {
			o.fork.putLeaf(d.leaf)
		} else {
			o.fork.Delete(d.key)
		}
		if d.had {
			o.writes[d.key] = d.write
		} else {
			delete(o.writes, d.key)
		}
	}
	o.Keep()
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
