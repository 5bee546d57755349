package core

import (
	"fmt"
	"hash/fnv"
	"sync"

	"agnopol/internal/chain"
)

// AreaRegistry is the factory-pattern directory of per-area contracts: one
// deployed contract per Open Location Code area, as §4.1 prescribes, with a
// stable area→shard affinity so load harnesses and connectors can route and
// attribute traffic per execution shard. The registry is safe for
// concurrent use — soak workers look up handles while new areas deploy.
type AreaRegistry struct {
	shards int

	mu    sync.RWMutex
	areas map[string]*Handle
	order []string
}

// NewAreaRegistry creates a registry routing areas across the given number
// of execution shards (clamped to at least 1).
func NewAreaRegistry(shards int) *AreaRegistry {
	if shards < 1 {
		shards = 1
	}
	return &AreaRegistry{
		shards: shards,
		areas:  make(map[string]*Handle),
	}
}

// Shards returns the registry's shard count.
func (r *AreaRegistry) Shards() int { return r.shards }

// Register binds an area code to its deployed contract handle. Registering
// the same area twice is an error — the factory deploys one contract per
// area.
func (r *AreaRegistry) Register(area string, h *Handle) error {
	if area == "" {
		return fmt.Errorf("core: empty area code")
	}
	if h == nil {
		return fmt.Errorf("core: nil handle for area %s", area)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.areas[area]; dup {
		return fmt.Errorf("core: area %s already registered", area)
	}
	r.areas[area] = h
	r.order = append(r.order, area)
	return nil
}

// Lookup returns the handle deployed for an area.
func (r *AreaRegistry) Lookup(area string) (*Handle, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.areas[area]
	return h, ok
}

// Areas lists the registered area codes in registration order.
func (r *AreaRegistry) Areas() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Len is the number of registered areas.
func (r *AreaRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.areas)
}

// ShardOf is the stable shard affinity of an area: an FNV-1a hash of the
// code modulo the shard count. It does not depend on registration order, so
// every run (and every process) routes an area the same way.
func (r *AreaRegistry) ShardOf(area string) int {
	h := fnv.New64a()
	h.Write([]byte(area))
	return int(h.Sum64() % uint64(r.shards))
}

// ConflictKey derives the execution-conflict key of an area's contract —
// the key the chains' partitioners would assign traffic targeting it. False
// when the area is unknown.
func (r *AreaRegistry) ConflictKey(area string) (chain.ConflictKey, bool) {
	h, ok := r.Lookup(area)
	if !ok {
		return chain.ConflictKey{}, false
	}
	if h.AppID != 0 {
		return chain.AppKey(h.AppID), true
	}
	return chain.ContractKey(h.EVMAddr), true
}
