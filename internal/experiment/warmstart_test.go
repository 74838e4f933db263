package experiment

import (
	"testing"
	"time"

	"bgpsim/internal/failure"
	"bgpsim/internal/topology"
)

// warmScenarios are the shapes the warm-start pin covers: the plain
// paper configuration, a policy world (where warm start must route the
// snapshot through the same relationship derivation), and relationships
// named by the topology spec.
func warmScenarios() map[string]Scenario {
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

// TestWarmStartResultPin: a warm-started trial must reproduce every
// Result field of the cold trial except WindowStart — the failure fires
// at a different absolute simulated time (no initial-convergence phase
// precedes it), but the measured post-failure window is byte-identical.
func TestWarmStartResultPin(t *testing.T) {
	for name, sc := range warmScenarios() {
		t.Run(name, func(t *testing.T) {
			cold, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			warm := sc
			warm.WarmStart = true
			got, err := Run(warm)
			if err != nil {
				t.Fatal(err)
			}
			if got.WindowStart == cold.WindowStart {
				t.Errorf("warm WindowStart %v equals cold %v; warm start did not skip the convergence phase",
					got.WindowStart, cold.WindowStart)
			}
			got.WindowStart = cold.WindowStart
			if got != cold {
				t.Errorf("warm result diverged from cold:\ncold %+v\nwarm %+v", cold, got)
			}
		})
	}
}

// TestSpecRelationshipsMatchExplicitPolicy: a scenario whose topology
// spec names the annotation (topogen's -rel modes) must measure exactly
// what the equivalent explicit Policy* scenario fields measure — the
// two spellings resolve to one derivation.
func TestSpecRelationshipsMatchExplicitPolicy(t *testing.T) {
	base := warmScenarios()["flat"]

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

// TestSweepWarmStartByteIdentical pins the tentpole claim at the sweep
// layer: an entire warm-started figure must render byte-identically to
// the cold figure.
func TestSweepWarmStartByteIdentical(t *testing.T) {
	cfg := SweepConfig{
		SeriesNames: []string{"MRAI=0.5", "batch"},
		Xs:          []float64{2.5, 10},
		Trials:      2,
		Cell: func(si int, x float64) Scenario {
			sc := Scenario{
				Topology: topology.Spec{Kind: topology.KindInternetLike, N: 40},
				Failure:  failure.Geographic(x / 100),
				Scheme:   ConstantMRAI(500 * time.Millisecond),
				Seed:     1,
			}
			if si == 1 {
				sc.Scheme = Batching(500 * time.Millisecond)
			}
			return sc
		},
		SameWorldAcrossSeries: true,
	}
	cold, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmStart = true
	warm, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Render() != warm.Render() {
		t.Errorf("warm sweep figure diverged:\ncold:\n%s\nwarm:\n%s", cold.Render(), warm.Render())
	}
}
