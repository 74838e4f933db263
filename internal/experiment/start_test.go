package experiment

import (
	"strings"
	"testing"
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/failure"
	"bgpsim/internal/topology"
)

// startScenarios are the shapes the start pin covers: the plain paper
// configuration, a policy world (where the install must route the
// snapshot through the same relationship derivation), and relationships
// named by the topology spec.
func startScenarios() map[string]Scenario {
	base := Scenario{
		Topology: topology.Spec{Kind: topology.KindInternetLike, N: 50},
		Failure:  failure.Geographic(0.10),
		Scheme:   ConstantMRAI(500 * time.Millisecond),
		Seed:     3,
	}
	policy := base
	policy.PolicyHierarchical = true
	specRel := base
	specRel.Topology.Relationships = topology.RelModeInfer
	return map[string]Scenario{
		"flat":     base,
		"policy":   policy,
		"spec-rel": specRel,
	}
}

// TestWarmStartResultPin pins where a trial starts: at the installed
// converged state, so the failure fires exactly bgp.SettleMargin into
// the run in every shape, and the vestigial Scenario.WarmStart switch is
// refused rather than silently ignored. (That the installed start
// measures what event-driven initial convergence would is pinned in
// internal/bgp against the refColdStart reference.)
func TestWarmStartResultPin(t *testing.T) {
	for name, sc := range startScenarios() {
		t.Run(name, func(t *testing.T) {
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.WindowStart != bgp.SettleMargin || res.Messages == 0 {
				t.Errorf("trial failed at %v with %d messages in its window, want %v and a storm", res.WindowStart, res.Messages, bgp.SettleMargin)
			}
			sc.WarmStart = true
			if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "WarmStart") {
				t.Errorf("Scenario.WarmStart accepted (err %v)", err)
			}
		})
	}
}

// TestSpecRelationshipsMatchExplicitPolicy: a scenario whose topology
// spec names the annotation (topogen's -rel modes) must measure exactly
// what the equivalent explicit Policy* scenario fields measure — the
// two spellings resolve to one derivation.
func TestSpecRelationshipsMatchExplicitPolicy(t *testing.T) {
	base := startScenarios()["flat"]

	viaSpec := base
	viaSpec.Topology.Relationships = topology.RelModeHierarchical
	viaFlag := base
	viaFlag.PolicyHierarchical = true

	a, err := Run(viaSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(viaFlag)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("spec annotation and explicit flag disagree:\nspec %+v\nflag %+v", a, b)
	}

	viaSpec.Topology.Relationships = topology.RelModeInfer
	viaSpec.Topology.RelationshipRatio = 1.5
	viaFlag.PolicyHierarchical = false
	viaFlag.PolicyRatio = 1.5
	a, err = Run(viaSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err = Run(viaFlag)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("inferred spec annotation and explicit ratio disagree:\nspec %+v\nflag %+v", a, b)
	}

	bad := base
	bad.Topology.Relationships = "friend"
	if _, err := Run(bad); err == nil {
		t.Error("unknown spec relationship mode accepted")
	}
}
