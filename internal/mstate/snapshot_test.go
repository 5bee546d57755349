package mstate

// Snapshot returns an independent fork sharing all nodes with t. Both
// sides may continue to mutate; neither observes the other. O(1). It
// drops t's token, which freezes every branch t owned — what Commit does
// to a handle — so the tests use it to put the ownership rule under
// writes on both sides of a retirement. The fork inherits t's commit base:
// what t has in a store, the fork has there too.
func (t *Trie) Snapshot() *Trie {
	t.own = nil
	return &Trie{root: t.root, count: t.count, base: t.base}
}
