package hypercube

import (
	"encoding/json"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewValidatesDimension(t *testing.T) {
	for _, r := range []int{0, -1, 21} {
		if _, err := New(r); err == nil {
			t.Errorf("New(%d) accepted", r)
		}
	}
	n, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Put(0, 63, "k", &Entry{}); err != nil {
		t.Fatalf("node 63 of 2^6: %v", err)
	}
	if _, err := n.Put(0, 64, "k", &Entry{}); err == nil {
		t.Fatal("node 64 of 2^6 accepted")
	}
}

// TestNeighborsDifferByOneBit: a node reaches each of its r neighbours,
// the IDs one bit away, in exactly one hop.
func TestNeighborsDifferByOneBit(t *testing.T) {
	const r = 5
	n := MustNew(r)
	for id := uint64(0); id < 1<<r; id += 7 {
		for b := 0; b < r; b++ {
			_, hops, _, err := n.Get(id, id^1<<b, "k")
			if err != nil {
				t.Fatal(err)
			}
			if hops != 1 {
				t.Fatalf("node %d reached its neighbour %d in %d hops, want 1", id, id^1<<b, hops)
			}
		}
	}
}

// TestRouteIsGreedyAndBounded: every hop flips one bit, so a request
// travels the Hamming distance between entry and target node, hence at
// most r hops (§1.3).
func TestRouteIsGreedyAndBounded(t *testing.T) {
	const r = 8
	n := MustNew(r)
	err := quick.Check(func(a, b uint8) bool {
		from, to := uint64(a), uint64(b)
		_, hops, _, err := n.Get(from, to, "k")
		return err == nil && hops == bits.OnesCount64(from^to) && hops <= r
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	n := MustNew(6)
	entry := &Entry{ContractID: "goerli/0xabc", OLC: "8FPHF8VV+X2", CIDs: []string{"bafy1"}}
	hops, err := n.Put(3, 42, "8FPHF8VV+X2", entry)
	if err != nil {
		t.Fatal(err)
	}
	if want := bits.OnesCount64(3 ^ 42); hops != want {
		t.Fatalf("put took %d hops, want %d", hops, want)
	}
	got, _, ok, err := n.Get(60, 42, "8FPHF8VV+X2")
	if err != nil || !ok {
		t.Fatalf("get failed: ok=%v err=%v", ok, err)
	}
	if got.ContractID != entry.ContractID || len(got.CIDs) != 1 {
		t.Fatalf("got %+v", got)
	}
	// Mutating the returned entry must not affect stored state.
	got.CIDs[0] = "tampered"
	again, _, _, err := n.Get(0, 42, "8FPHF8VV+X2")
	if err != nil {
		t.Fatal(err)
	}
	if again.CIDs[0] != "bafy1" {
		t.Fatal("stored entry was mutated through the returned copy")
	}
}

func TestGetMissingKeyword(t *testing.T) {
	n := MustNew(4)
	_, _, ok, err := n.Get(0, 5, "nothing")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("missing keyword reported found")
	}
}

func TestIDRangeChecks(t *testing.T) {
	n := MustNew(4)
	if _, err := n.Put(16, 0, "k", &Entry{}); err == nil {
		t.Fatal("via out of range accepted")
	}
	if _, err := n.Put(0, 16, "k", &Entry{}); err == nil {
		t.Fatal("target out of range accepted")
	}
	if _, _, _, err := n.Get(0, 99, "k"); err == nil {
		t.Fatal("get target out of range accepted")
	}
}

func TestAppendCIDCreatesAndAppends(t *testing.T) {
	n := MustNew(5)
	if _, err := n.AppendCID(0, 9, "area", "ctc-1", "bafyA"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AppendCID(1, 9, "area", "ctc-1", "bafyB"); err != nil {
		t.Fatal(err)
	}
	e, _, ok, err := n.Get(0, 9, "area")
	if err != nil || !ok {
		t.Fatal("entry missing after AppendCID")
	}
	if len(e.CIDs) != 2 || e.CIDs[0] != "bafyA" || e.CIDs[1] != "bafyB" {
		t.Fatalf("CIDs = %v", e.CIDs)
	}
	if e.ContractID != "ctc-1" {
		t.Fatalf("contract ID %q", e.ContractID)
	}
}

func TestRangeQueryHammingBall(t *testing.T) {
	n := MustNew(4)
	// Store at nodes 0 (distance 0), 1 (distance 1), 3 (distance 2), 15
	// (distance 4) relative to target 0.
	for _, id := range []uint64{0, 1, 3, 15} {
		if _, err := n.Put(0, id, "k", &Entry{ContractID: "c", OLC: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := n.RangeQuery(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("range query ≤2 hops returned %d entries, want 3", len(got))
	}
	all, err := n.RangeQuery(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("range query ≤4 hops returned %d entries, want 4", len(all))
	}
}

// TestStatsAverageHops: the antipodal node is the r-hop worst case and the
// responsible node itself is zero hops away, so the two average r/2.
func TestStatsAverageHops(t *testing.T) {
	n := MustNew(6)
	put, err := n.Put(0, 63, "a", &Entry{})
	if err != nil {
		t.Fatal(err)
	}
	_, get, _, err := n.Get(63, 63, "a")
	if err != nil {
		t.Fatal(err)
	}
	if put != 6 || get != 0 {
		t.Fatalf("hops put %d, get %d; want 6 and 0", put, get)
	}
	if avg := float64(put+get) / 2; avg != 3 {
		t.Fatalf("avg hops %v, want 3", avg)
	}
}

// TestEntryJSONMatchesThesisShape: the struct tags give the JSON document
// a node serves the field names of Fig. 2.9.
func TestEntryJSONMatchesThesisShape(t *testing.T) {
	e := &Entry{ContractID: "app/5", OLC: "8FPH+XX", CIDs: []string{"bafy1", "bafy2"}}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"contractId":"app/5","olc":"8FPH+XX","cids":["bafy1","bafy2"]}`
	if string(data) != want {
		t.Fatalf("JSON = %s, want %s", data, want)
	}
}
