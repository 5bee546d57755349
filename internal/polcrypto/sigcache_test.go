package polcrypto

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// signedHash returns a fresh key pair's signature over a 32-byte hash
// derived from n, plus a SigKey for it.
func signedHash(t *testing.T, n uint64) (kp *KeyPair, hash [32]byte, sig []byte, key SigKey) {
	t.Helper()
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], n)
	kp = MustGenerateKeyPair(bytes.NewReader(bytes.Repeat(seed[:], 8)))
	hash = Hash([]byte("claim"), seed[:])
	sig = kp.Sign(hash[:])
	key, ok := SigKeyFor(kp.Public, hash[:], sig)
	if !ok {
		t.Fatal("canonical key shape rejected")
	}
	return kp, hash, sig, key
}

// TestSignerNamesTheKeyOfAValidVerdict: once a signature verified through
// the cache, Signer recovers the public key from (hash, signature) alone.
func TestSignerNamesTheKeyOfAValidVerdict(t *testing.T) {
	c := NewSigCache(8)
	kp, hash, sig, _ := signedHash(t, 1)
	if _, ok := c.Signer(hash[:], sig); ok {
		t.Fatal("cold cache named a signer")
	}
	if ok, hit := c.Verify(kp.Public, hash[:], sig); !ok || hit {
		t.Fatalf("first verify: ok=%v hit=%v, want true/false", ok, hit)
	}
	pub, ok := c.Signer(hash[:], sig)
	if !ok || !bytes.Equal(pub, kp.Public) {
		t.Fatalf("Signer = %x, %v; want %x", pub, ok, kp.Public)
	}
	// The returned key is the caller's to keep: scribbling on it must not
	// reach the cache.
	pub[0] ^= 0xff
	if again, _ := c.Signer(hash[:], sig); !bytes.Equal(again, kp.Public) {
		t.Fatal("Signer handed out the cache's own key bytes")
	}
	// Shapes the cache never stores have no signer.
	if _, ok := c.Signer(hash[:31], sig); ok {
		t.Fatal("short message named a signer")
	}
	if _, ok := c.Signer(hash[:], sig[:63]); ok {
		t.Fatal("short signature named a signer")
	}
}

// TestSignerNeverReturnsNegativeVerdicts: a key under which the signature
// was checked and found invalid is cached, but never offered as the signer.
func TestSignerNeverReturnsNegativeVerdicts(t *testing.T) {
	c := NewSigCache(8)
	_, hash, sig, _ := signedHash(t, 2)
	other, _, _, _ := signedHash(t, 3)
	if ok, _ := c.Verify(other.Public, hash[:], sig); ok {
		t.Fatal("signature verified under the wrong key")
	}
	if c.Len() != 1 {
		t.Fatalf("negative verdict not cached: len=%d", c.Len())
	}
	if pub, ok := c.Signer(hash[:], sig); ok {
		t.Fatalf("Signer returned %x for a negative verdict", pub)
	}
}

// TestSignerEntryLeavesWithItsLRUElement: eviction removes the
// (hash, signature) slot together with the verdict, so the index stays
// inside the cache's capacity.
func TestSignerEntryLeavesWithItsLRUElement(t *testing.T) {
	c := NewSigCache(2)
	type signedMsg struct {
		kp   *KeyPair
		hash [32]byte
		sig  []byte
	}
	var msgs []signedMsg
	for n := uint64(10); n < 13; n++ {
		kp, hash, sig, key := signedHash(t, n)
		c.Put(key, true)
		msgs = append(msgs, signedMsg{kp, hash, sig})
	}
	if c.Len() != 2 || len(c.signers) != 2 {
		t.Fatalf("len=%d signers=%d, want 2/2", c.Len(), len(c.signers))
	}
	if _, ok := c.Signer(msgs[0].hash[:], msgs[0].sig); ok {
		t.Fatal("evicted entry still names a signer")
	}
	for _, m := range msgs[1:] {
		if pub, ok := c.Signer(m.hash[:], m.sig); !ok || !bytes.Equal(pub, m.kp.Public) {
			t.Fatal("surviving entry lost its signer")
		}
	}
	// Negative verdicts take LRU room but no index slot.
	_, hash, sig, _ := signedHash(t, 13)
	bad, _ := SigKeyFor(msgs[1].kp.Public, hash[:], sig)
	c.Put(bad, false)
	if c.Len() != 2 || len(c.signers) != 1 {
		t.Fatalf("after a negative put: len=%d signers=%d, want 2/1", c.Len(), len(c.signers))
	}
}

// TestPutOverwriteKeepsSignerIndexConsistent: overwriting a verdict moves
// the entry into or out of the signer index.
func TestPutOverwriteKeepsSignerIndexConsistent(t *testing.T) {
	c := NewSigCache(4)
	kp, hash, sig, key := signedHash(t, 20)
	c.Put(key, true)
	c.Put(key, false)
	if _, ok := c.Signer(hash[:], sig); ok {
		t.Fatal("signer survived its verdict turning negative")
	}
	if ok, hit := c.Get(key); ok || !hit {
		t.Fatalf("overwritten verdict: ok=%v hit=%v, want false/true", ok, hit)
	}
	c.Put(key, true)
	if pub, ok := c.Signer(hash[:], sig); !ok || !bytes.Equal(pub, kp.Public) {
		t.Fatal("signer missing after its verdict turned positive")
	}
	if c.Len() != 1 || len(c.signers) != 1 {
		t.Fatalf("len=%d signers=%d, want 1/1", c.Len(), len(c.signers))
	}
}

// heapAfterGC is the live heap: what is still reachable after a full
// collection.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle may still be sweeping finalizer-held blocks
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// cacheResident is what a NewSigCache(DefaultSigCacheSize) holding n valid
// verdicts keeps on the heap: the live heap with the cache reachable minus
// the live heap before it was built. The keys exist before the first
// reading, so only the cache's own memory is counted. It runs on one P, so
// the readings do not count partly used allocation spans other Ps' caches
// hold.
func cacheResident(n int) int64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	keys := make([]SigKey, n)
	for i := range keys {
		binary.BigEndian.PutUint64(keys[i].hash[:], uint64(i))
		binary.BigEndian.PutUint64(keys[i].sig[:], uint64(i))
	}
	before := heapAfterGC()
	c := NewSigCache(DefaultSigCacheSize)
	for _, k := range keys {
		c.Put(k, true)
	}
	with := heapAfterGC()
	runtime.KeepAlive(c)
	runtime.KeepAlive(keys)
	return int64(with) - int64(before)
}

// TestEmptySigCacheIsSmall: a cache costs what it holds, not what it may
// hold. Every System builds one at the default bound, and most of them see
// a few hundred signatures at most; presized to the bound, the empty cache
// held 1 180 176 B of map buckets.
func TestEmptySigCacheIsSmall(t *testing.T) {
	if got := cacheResident(0); got > 1024 {
		t.Fatalf("an empty cache keeps %d B resident, budget 1 KiB", got)
	} else {
		t.Logf("an empty cache keeps %d B resident", got)
	}
}

// BenchmarkSigCacheResident reports the heap a cache at the default bound
// keeps empty and full (DefaultSigCacheSize valid verdicts, so the signer
// index is full too), and the bytes one verdict costs. Nothing is timed.
func BenchmarkSigCacheResident(b *testing.B) {
	empty, full := cacheResident(0), cacheResident(DefaultSigCacheSize)
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(float64(empty), "B-empty")
	b.ReportMetric(float64(full), "B-full")
	b.ReportMetric(float64(full-empty)/DefaultSigCacheSize, "B/verdict")
}
