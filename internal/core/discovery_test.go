package core

import (
	"testing"

	"agnopol/internal/geo"
)

func TestDiscovery(t *testing.T) {
	sys := newTestSystem(t)
	near1, err := NewWitness(sys, geo.Offset(bologna, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	near2, err := NewWitness(sys, geo.Offset(bologna, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWitness(sys, geo.Offset(bologna, 400, 0)); err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(sys, bologna)
	if err != nil {
		t.Fatal(err)
	}
	got := prover.DiscoverWitnesses()
	if len(got) != 2 {
		t.Fatalf("discovered %d witnesses, want 2", len(got))
	}
	// Sorted closest first.
	if got[0] != near1 || got[1] != near2 {
		t.Fatal("discovery not distance-ordered")
	}
	// A spoofing prover scans from where it really is.
	prover.Device.ClaimedPosition = geo.Offset(bologna, 5000, 0)
	if len(prover.DiscoverWitnesses()) != 2 {
		t.Fatal("spoofed claim changed the physical scan result")
	}
}
