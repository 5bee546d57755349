package chain

import (
	"errors"
	"fmt"
	"time"

	"agnopol/internal/faults"
	"agnopol/internal/mstate"
)

// ErrBadCheckpoint is the class of every refusal of a checkpoint that does
// not fit the chain it is opened on: another chain's name, another state
// root, or a pending entry that is empty or fails admission's state-free
// checks. An error of this class may wrap the entry's own typed error too.
var ErrBadCheckpoint = errors.New("chain: checkpoint refused")

// Position is the part of a checkpoint both families share: which chain
// it is, the head block's hash and time, the state root, the receipt
// accumulator, the clock, the rng's stream position and the retention
// window. eth.Checkpoint and algorand.Checkpoint embed it, so its fields
// keep their JSON keys; the pending pool stays a field of each family's
// checkpoint, under that family's key.
type Position struct {
	Name      string
	HeadHash  Hash32
	HeadTime  time.Duration
	StateRoot Hash32
	RcptAcc   Hash32
	RcptCount uint64
	Clock     time.Duration
	// Rng is the chain PRNG's stream position (Rand.State).
	Rng       uint64
	Retention int
}

// Mark fills in the receipt, clock, rng and retention fields. A chain
// with a fault injector attached refuses to checkpoint: injector stream
// positions are not captured, so a resumed run could not replay
// identically.
func (p *Position) Mark(family string, flt *faults.Injector, clock *Clock, rng *Rand, rcpts *Receipts) error {
	if flt != nil {
		return errors.New(family + ": cannot checkpoint with fault injection attached")
	}
	p.RcptAcc, p.RcptCount = rcpts.Position()
	p.Clock, p.Rng, p.Retention = clock.Now(), rng.State(), rcpts.Retention
	return nil
}

// Resume checks that p was taken on the chain called name, whose loaded
// state has the given root, then puts the receipts, clock and rng back
// where p left them.
func (p *Position) Resume(family, name string, root Hash32, clock *Clock, rng *Rand, rcpts *Receipts) error {
	if p.Name != name {
		return fmt.Errorf("%w: %s: checkpoint is for chain %q, config says %q", ErrBadCheckpoint, family, p.Name, name)
	}
	if root != p.StateRoot {
		return fmt.Errorf("%w: %s: loaded state root %x does not match checkpoint %x", ErrBadCheckpoint, family, root[:8], p.StateRoot[:8])
	}
	rcpts.SetPosition(p.RcptAcc, p.RcptCount)
	rcpts.Retention = p.Retention
	clock.AdvanceTo(p.Clock)
	rng.SetState(p.Rng)
	return nil
}

// LoadState is the first half of both families' Open. Without a store the
// chain stays in memory — nil trie, nil error — and a root or checkpoint
// is an error. A store comes with its checkpoint: the state committed at
// root is loaded from it only when checkpoint is set, so a loaded chain is
// always also repositioned.
func LoadState(family string, store mstate.NodeStore, root mstate.Hash, checkpoint bool) (*mstate.Trie, error) {
	if store == nil {
		if root != (mstate.Hash{}) || checkpoint {
			return nil, errors.New(family + ": Open with a root or checkpoint requires a store")
		}
		return nil, nil
	}
	if !checkpoint {
		return nil, errors.New(family + ": Open with a store requires a checkpoint")
	}
	t, err := mstate.Load(store, root)
	if err != nil {
		return nil, fmt.Errorf("%s: load state %x: %w", family, root[:8], err)
	}
	return t, nil
}
