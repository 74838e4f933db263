package topology

import (
	"testing"

	"bgpsim/internal/des"
)

func BenchmarkSkewed7030_120(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := des.NewRNG(int64(i + 1))
		if _, err := SkewedNetwork(Skewed7030(120), rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInternetLike_120(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := des.NewRNG(int64(i + 1))
		if _, err := InternetLikeNetwork(120, 3.4, 40, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealistic120AS(b *testing.B) {
	spec := DefaultRealistic(120)
	spec.MaxASSize = 20
	for i := 0; i < b.N; i++ {
		rng := des.NewRNG(int64(i + 1))
		if _, err := Realistic(spec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFSHops(b *testing.B) {
	rng := des.NewRNG(1)
	nw, err := SkewedNetwork(Skewed7030(120), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nw.BFSHops(i%nw.NumNodes(), nil)
	}
}

func BenchmarkNearestNodes(b *testing.B) {
	rng := des.NewRNG(1)
	nw, err := SkewedNetwork(Skewed7030(120), rng)
	if err != nil {
		b.Fatal(err)
	}
	center := GridCenter(nw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NearestNodes(nw, center, 24, nil)
	}
}

func BenchmarkSkewed7030_30(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := des.NewRNG(int64(i + 1)).Split("topology")
		if _, err := SkewedNetwork(Skewed7030(30), rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkewed7030_500(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := des.NewRNG(int64(i + 1)).Split("topology")
		if _, err := SkewedNetwork(Skewed7030(500), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInternetLike_500 builds the trial500 world: Spec.Build's
// Internet-like defaults at 500 ASes, as bgpsim.LargeScale500 asks.
func BenchmarkInternetLike_500(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := des.NewRNG(int64(i + 1)).Split("topology")
		if _, err := (Spec{Kind: KindInternetLike, N: 500}).Build(rng); err != nil {
			b.Fatal(err)
		}
	}
}
