package experiment

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"bgpsim/internal/des"
	"bgpsim/internal/failure"
	"bgpsim/internal/topology"
)

// referenceStreams is the derivation Slot.Derive replaced — a root and
// three Splits, each a source of its own — kept as the reference the
// rewound streams are compared against.
func referenceStreams(seed int64, label string) (topo, second *des.RNG, simSeed int64) {
	root := des.NewRNG(seed)
	topo = root.Split("topology")
	second = root.Split(label)
	return topo, second, root.Split("sim").Int63()
}

// TestTrialStreamsMatchSplit pins that one slot, rewound from seed to
// seed, derives for each what a fresh NewRNG/Split chain derives: the
// topology stream (by its seed), the trial's own stream and the
// simulator's seed — whatever the slot's streams were last used for.
func TestTrialStreamsMatchSplit(t *testing.T) {
	slot := (*SimPool)(nil).Take()
	sameDraws := func(a, b *des.RNG) bool {
		for i := 0; i < 16; i++ {
			if a.Int63() != b.Int63() {
				return false
			}
		}
		return true
	}
	for i := int64(0); i < 1000; i++ {
		seed := 47 + i*7919
		label := "failure"
		if i%3 == 2 {
			label = "churn"
		}
		wantTopo, wantSecond, wantSim := referenceStreams(seed, label)
		topoSeed, second, simSeed := slot.Derive(seed, label)
		if !sameDraws(des.NewRNG(topoSeed), wantTopo) {
			t.Fatalf("seed %d: topology stream differs from root.Split(\"topology\")", seed)
		}
		if got := topoStreamSeed(seed); got != topoSeed {
			t.Fatalf("seed %d: topoStreamSeed = %d, Slot.Derive = %d", seed, got, topoSeed)
		}
		if !sameDraws(second, wantSecond) {
			t.Fatalf("seed %d: %s stream differs from root.Split(%q)", seed, label, label)
		}
		if simSeed != wantSim {
			t.Fatalf("seed %d: sim seed %d, want %d", seed, simSeed, wantSim)
		}
		// Leave each stream a different distance into this seed's draws.
		for j := int64(0); j < i%5; j++ {
			second.Int63()
			slot.root.Int63()
		}
	}
}

// TestPooledTrialAllocatesNoStreams pins what rewinding buys: once a
// pool has a slot and the memo the world, a trial on a 30-node world
// allocates under 4 kB (it seeded four 5.4 kB sources before), pass
// after pass.
func TestPooledTrialAllocatesNoStreams(t *testing.T) {
	sc := Scenario{
		Topology: topology.Spec{Kind: topology.KindSkewed7030, N: 30},
		Failure:  failure.Geographic(0.1),
		Scheme:   ConstantMRAI(SecondsToDuration(0.5)),
		Seed:     47,
	}
	pool := NewSimPool()
	run := func() {
		if _, err := runScenario(context.Background(), sc, pool); err != nil {
			t.Fatal(err)
		}
	}
	run() // builds the world, the slot and its simulator
	run()
	var ms runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		if n := ms.TotalAlloc - before; n >= 4<<10 {
			t.Errorf("pooled trial %d allocated %d B, want < 4096", i+3, n)
		}
	}
}

// TestTopoKeyCoversEverySpecField pins the memo key against the spec
// growing: every field of topology.Spec must be comparable and must
// change the key, or two worlds would share an entry. A field this test
// cannot set (a pointer, a slice, a map) fails it, so the key is
// revisited when one is added.
func TestTopoKeyCoversEverySpecField(t *testing.T) {
	if !reflect.TypeOf(topoKey{}).Comparable() {
		t.Fatal("topoKey is not comparable")
	}
	base := topoKey{topology.Spec{}, 1}
	for i := 0; i < reflect.TypeOf(topology.Spec{}).NumField(); i++ {
		var spec topology.Spec
		f := reflect.ValueOf(&spec).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(0.7)
		case reflect.String:
			f.SetString("x")
		default:
			t.Fatalf("Spec.%s has kind %s: teach topoKey and this test about it",
				reflect.TypeOf(spec).Field(i).Name, f.Kind())
		}
		if (topoKey{spec, 1}) == base {
			t.Errorf("Spec.%s does not change the memo key", reflect.TypeOf(spec).Field(i).Name)
		}
	}
	if (topoKey{topology.Spec{}, 2}) == base {
		t.Error("the seed does not change the memo key")
	}
}
