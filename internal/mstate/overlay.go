package mstate

// Overlay is a speculative write set over a base trie: a write buffer that
// holds the final value of every key it touched and reads everything else
// from the base, so the whole overlay replays onto the base in one pass at
// commit time. A Put or Delete is a map write and copies no branch;
// discarding an overlay is dropping the pointer — the base never saw it.
//
// A part of an overlay's writes rolls back through a revert point: Mark
// opens one, every write under it first records the buffer entry it
// displaces, and Revert puts that back — which is how an Algorand group
// fails inside its round's overlay without disturbing the round's other
// groups.
type Overlay struct {
	base *Trie
	// gen is the base's write generation when the overlay was opened; a
	// read that finds the base past it panics (NewOverlay states the rule).
	gen uint64
	// writes holds the final state of every touched key: its leaf, or nil
	// for a delete.
	writes map[Key]*leaf
	// undo holds, oldest first, the writes entry each write since Mark
	// displaced; it is empty whenever no mark is open, and reused from
	// mark to mark.
	undo   []displaced
	marked bool
}

// displaced is the writes entry one write under a mark replaced (had:
// there was one — a nil entry buffers a delete).
type displaced struct {
	key   Key
	write *leaf
	had   bool
}

// NewOverlay opens an overlay over base. The overlay reads the live base,
// not a snapshot of it, so the rule is: once base is written (Put, Delete,
// or another overlay's CommitTo), an overlay opened before that write must
// not be read again — Get and Has panic — though it may still be committed
// or dropped. Overlays over one base may be read and written from
// goroutines of their own while the base stands still.
func NewOverlay(base *Trie) *Overlay {
	return &Overlay{base: base, gen: base.gen, writes: make(map[Key]*leaf)}
}

// Get reads through the overlay (own writes shadow the base).
func (o *Overlay) Get(k Key) ([]byte, bool) {
	if lf := o.leafOf(k); lf != nil {
		return lf.val, true
	}
	return nil, false
}

// Has reads through the overlay.
func (o *Overlay) Has(k Key) bool { return o.leafOf(k) != nil }

// leafOf is the leaf the overlay sees under k, nil when the key is absent.
func (o *Overlay) leafOf(k Key) *leaf {
	if o.base.gen != o.gen {
		panic("mstate: overlay read after its base was written; an overlay must not be read once its base has been written")
	}
	if lf, ok := o.writes[k]; ok {
		return lf
	}
	return o.base.leafOf(k)
}

// Put writes k=v into the overlay only.
func (o *Overlay) Put(k Key, v []byte) {
	o.record(k)
	o.writes[k] = newLeaf(k, v)
}

// Delete removes k in the overlay only.
func (o *Overlay) Delete(k Key) {
	o.record(k)
	o.writes[k] = nil
}

// record notes, under an open mark, the writes entry a write to k is about
// to displace. An overlay nobody marks pays this one branch per write.
func (o *Overlay) record(k Key) {
	if o.marked {
		write, had := o.writes[k]
		o.undo = append(o.undo, displaced{k, write, had})
	}
}

// Mark opens a revert point: every write from here until Keep or Revert
// can be taken back. Marks do not nest. The writes still go straight into
// the overlay — a reader sees them before it is known whether they stay —
// so an overlay with an open mark belongs to one goroutine, which is how a
// round executes its groups.
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
// first, by restoring the writes entries it displaced, so CommitTo replays
// none of it.
func (o *Overlay) Revert() {
	for i := len(o.undo) - 1; i >= 0; i-- {
		d := &o.undo[i]
		if d.had {
			o.writes[d.key] = d.write
		} else {
			delete(o.writes, d.key)
		}
	}
	o.Keep()
}

// CommitTo replays the buffered writes onto dst, which is normally the
// base the overlay was opened on. Replay order does not matter: the buffer holds final
// values, one entry per key — and dst links the buffered leaves
// themselves, so a committed value is copied once, at Put, and a base
// that owns its branches rewrites them in place.
func (o *Overlay) CommitTo(dst *Trie) {
	for k, lf := range o.writes {
		if lf == nil {
			dst.Delete(k)
		} else {
			dst.putLeaf(lf)
		}
	}
}
