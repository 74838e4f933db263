package experiment

import (
	"fmt"
	"sync"

	"bgpsim/internal/topology"
)

// Relationship annotation is deterministic: for a given network, the
// hierarchical builder has no free parameters and the degree heuristic
// depends only on the ratio. Re-inferring per trial therefore produced
// equal-but-distinct Relationships values every run, wasted work. This
// memo gives every (network, mode, ratio) triple one immutable
// Relationships value for the life of the network, the same sharing
// contract the topology cache provides.

// relKey identifies one deterministic annotation of a memoized network.
type relKey struct {
	net          *topology.Network
	hierarchical bool
	ratio        float64 // 0 under hierarchical
}

// relCacheCap bounds the memo; on overflow the map is dropped — a
// recompute costs milliseconds, unbounded growth costs memory (keys pin
// their networks).
const relCacheCap = 256

var relCache = struct {
	sync.Mutex
	m map[relKey]*topology.Relationships
}{m: make(map[relKey]*topology.Relationships)}

// relationshipsFor returns the scenario's policy annotation for net,
// memoized per (net, mode, ratio). The result is shared across trials
// and must be treated as immutable.
func relationshipsFor(net *topology.Network, hierarchical bool, ratio float64) (*topology.Relationships, error) {
	key := relKey{net: net, hierarchical: hierarchical, ratio: ratio}
	if hierarchical {
		key.ratio = 0
	}
	relCache.Lock()
	rs := relCache.m[key]
	relCache.Unlock()
	if rs != nil {
		return rs, nil
	}
	var err error
	if hierarchical {
		rs, err = topology.HierarchicalRelationships(net)
	} else {
		rs, err = topology.InferRelationships(net, ratio)
	}
	if err != nil {
		return nil, err
	}
	relCache.Lock()
	if len(relCache.m) >= relCacheCap {
		relCache.m = make(map[relKey]*topology.Relationships, relCacheCap)
	}
	relCache.m[key] = rs
	relCache.Unlock()
	return rs, nil
}

// relationshipsForSpec resolves a topology spec's relationship
// annotation (topology.Spec.Relationships) through the same memo, so a
// spec-annotated scenario and an explicitly-flagged one that name the
// same derivation share one Relationships value, derived once. The
// mode-to-parameter mapping mirrors Spec.BuildRelationships exactly,
// defaults included.
func relationshipsForSpec(net *topology.Network, spec topology.Spec) (*topology.Relationships, error) {
	switch spec.Relationships {
	case topology.RelModeHierarchical:
		return relationshipsFor(net, true, 0)
	case topology.RelModeInfer:
		ratio := spec.RelationshipRatio
		if ratio == 0 {
			ratio = topology.DefaultRelationshipRatio
		}
		return relationshipsFor(net, false, ratio)
	default:
		return nil, fmt.Errorf("experiment: unknown relationship mode %q", spec.Relationships)
	}
}
