package ipfs

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAddGetRoundTrip(t *testing.T) {
	n := NewNetwork()
	n.AddPeer("alice")
	data := []byte(`{"title":"report"}`)
	cid, err := n.Add("alice", data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Get(cid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("got %q", got)
	}
}

func TestCIDIsContentAddressed(t *testing.T) {
	err := quick.Check(func(a, b []byte) bool {
		ca, cb := ComputeCID(a), ComputeCID(b)
		if string(a) == string(b) {
			return ca == cb
		}
		return ca != cb
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCIDVerify(t *testing.T) {
	data := []byte("content")
	cid := ComputeCID(data)
	if !cid.Verify(data) {
		t.Fatal("honest content rejected")
	}
	if cid.Verify([]byte("tampered")) {
		t.Fatal("tampered content accepted")
	}
}

func TestAddRequiresRegisteredPeer(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Add("ghost", []byte("x")); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("err = %v, want ErrNoPeer", err)
	}
}

func TestSameContentMultipleProviders(t *testing.T) {
	n := NewNetwork()
	n.AddPeer("a")
	n.AddPeer("b")
	cid1, err := n.Add("a", []byte("shared"))
	if err != nil {
		t.Fatal(err)
	}
	cid2, err := n.Add("b", []byte("shared"))
	if err != nil {
		t.Fatal(err)
	}
	if cid1 != cid2 {
		t.Fatal("same content produced different CIDs")
	}
	if got, err := n.Get(cid1); err != nil || string(got) != "shared" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestPinUnknownContent(t *testing.T) {
	n := NewNetwork()
	n.AddPeer("alice")
	if err := n.Pin("alice", "bafy-missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	// The peer is checked before the content.
	if err := n.Pin("ghost", "bafy-missing"); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("err = %v, want ErrNoPeer", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	n := NewNetwork()
	n.AddPeer("a")
	cid, err := n.Add("a", []byte("orig"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Get(cid)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'X'
	again, err := n.Get(cid)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != "orig" {
		t.Fatal("stored content mutated through returned slice")
	}
}
