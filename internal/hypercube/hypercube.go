// Package hypercube implements the DHT with hypercube topology the paper
// stores validated reports in (§1.3, §2.5; Zichichi et al.'s "hypfs").
//
// The network has 2^r logical nodes. Node IDs are r-bit strings; two nodes
// are neighbours exactly when their IDs differ in one bit, so greedy routing
// (flip the most significant differing bit) reaches any node in at most r
// hops. Each node is responsible for the keyword set whose dual encoding
// (package olc) maps to its ID, and stores the per-area content the verifier
// publishes after the garbage-in check: the contract ID, the Open Location
// Code, and the array of validated report CIDs (Fig. 2.9).
package hypercube

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"agnopol/internal/faults"
)

// Entry is the content of a hypercube node for one keyword (one area),
// matching Fig. 2.9 of the thesis.
type Entry struct {
	ContractID string   `json:"contractId"`
	OLC        string   `json:"olc"`
	CIDs       []string `json:"cids"`
}

// Clone returns a deep copy so callers cannot mutate stored state.
func (e *Entry) Clone() *Entry {
	if e == nil {
		return nil
	}
	cp := &Entry{ContractID: e.ContractID, OLC: e.OLC}
	cp.CIDs = append(cp.CIDs, e.CIDs...)
	return cp
}

// Network is the complete r-dimensional hypercube.
type Network struct {
	mu sync.RWMutex
	r  int
	// nodes[id] is logical vertex id's content: keyword (OLC) -> entry.
	nodes []map[string]*Entry

	// flt injects node failures on routing paths; nil when fault
	// injection is off.
	flt *faults.Injector
}

// SetFaults attaches a fault injector to the routing layer.
func (h *Network) SetFaults(inj *faults.Injector) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.flt = inj
}

// New creates an r-dimensional hypercube with all 2^r logical nodes. r must
// be in 1..20 (the paper uses small r; 2^20 nodes is already a million).
func New(r int) (*Network, error) {
	if r < 1 || r > 20 {
		return nil, fmt.Errorf("hypercube: dimension r=%d out of range (1..20)", r)
	}
	n := &Network{r: r, nodes: make([]map[string]*Entry, 1<<uint(r))}
	for i := range n.nodes {
		n.nodes[i] = make(map[string]*Entry)
	}
	return n, nil
}

// MustNew is New for static dimensions.
func MustNew(r int) *Network {
	n, err := New(r)
	if err != nil {
		panic(err)
	}
	return n
}

// routeResilient walks greedily from 'from' to 'to', flipping the most
// significant differing bit at each hop, so the path length is the Hamming
// distance, hence at most r. It consults the fault injector at every
// intermediate hop: when the greedy next-hop node is down, the walk detours
// via the least significant differing bit instead. Any differing bit closes
// the Hamming distance, so reroutes never lengthen the path and the r-hop
// bound survives failures. The endpoints never fail — the requester is
// alive and the responsible node must serve, matching the paper's
// assumption that content responsibility is re-homed out of band. Every
// reroute that still delivered the request counts as a recovery. It
// returns the hops travelled.
func (h *Network) routeResilient(from, to uint64) int {
	hops := 0
	for cur := from; cur != to; hops++ {
		diff := cur ^ to
		next := cur ^ (1 << uint(bits.Len64(diff)-1))
		if next != to && h.flt.Hit(faults.ClassCubeNodeDown, "cube.route") {
			next = cur ^ (1 << uint(bits.TrailingZeros64(diff)))
			h.flt.Recover(faults.ClassCubeNodeDown)
		}
		cur = next
	}
	return hops
}

func (h *Network) checkID(id uint64) error {
	if id >= uint64(len(h.nodes)) {
		return fmt.Errorf("hypercube: node id %d out of range for r=%d", id, h.r)
	}
	return nil
}

// Put routes from entry node 'via' to the node responsible for keyword
// (target node targetID) and stores the entry there. It returns the number
// of hops the request travelled.
func (h *Network) Put(via, targetID uint64, keyword string, entry *Entry) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.checkID(via); err != nil {
		return 0, err
	}
	if err := h.checkID(targetID); err != nil {
		return 0, err
	}
	hops := h.routeResilient(via, targetID)
	h.nodes[targetID][keyword] = entry.Clone()
	return hops, nil
}

// Get routes from 'via' to the responsible node and returns the entry for
// keyword, the hop count, and whether it was found.
func (h *Network) Get(via, targetID uint64, keyword string) (*Entry, int, bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.checkID(via); err != nil {
		return nil, 0, false, err
	}
	if err := h.checkID(targetID); err != nil {
		return nil, 0, false, err
	}
	hops := h.routeResilient(via, targetID)
	e, ok := h.nodes[targetID][keyword]
	return e.Clone(), hops, ok, nil
}

// AppendCID appends a validated report CID to the entry for keyword,
// creating the entry when absent. This is the verifier's garbage-in write
// path.
func (h *Network) AppendCID(via, targetID uint64, keyword, contractID, cid string) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.checkID(via); err != nil {
		return 0, err
	}
	if err := h.checkID(targetID); err != nil {
		return 0, err
	}
	hops := h.routeResilient(via, targetID)
	entries := h.nodes[targetID]
	e, ok := entries[keyword]
	if !ok {
		e = &Entry{ContractID: contractID, OLC: keyword}
		entries[keyword] = e
	}
	e.CIDs = append(e.CIDs, cid)
	return hops, nil
}

// RangeQuery implements the "complex query" of §1.3: collect every entry
// stored within maxHops of the target node (a Hamming ball), the mechanism
// that lets the application fetch reports for an area and its surroundings
// with a bounded number of hops.
func (h *Network) RangeQuery(targetID uint64, maxHops int) ([]*Entry, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if err := h.checkID(targetID); err != nil {
		return nil, err
	}
	var out []*Entry
	for id, entries := range h.nodes {
		if bits.OnesCount64(uint64(id)^targetID) <= maxHops {
			keys := make([]string, 0, len(entries))
			for k := range entries {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				out = append(out, entries[k].Clone())
			}
		}
	}
	return out, nil
}
