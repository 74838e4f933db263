// Benchmarks regenerating every figure in the paper's evaluation section.
// Each BenchmarkFigNN runs the corresponding experiment end to end
// (topology generation, initial BGP convergence, failure injection,
// re-convergence, aggregation) at the reduced QuickOptions scale so the
// full suite completes in minutes; `cmd/bgpfig` runs the same experiments
// at paper scale. Performance claims are made with benchmark/ (see
// EXPERIMENTS.md "Running the benchmarks"), not with these; the paper's
// claims are checked by TestScorecard.
package bgpsim_test

import (
	"fmt"
	"testing"

	"bgpsim"
)

// benchFigure runs one registered experiment per iteration and reports
// the mean convergence delay of its first series as a custom metric so
// regressions in simulation behaviour (not just speed) are visible.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	e, err := bgpsim.LookupExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := bgpsim.QuickOptions()
	var lastY float64
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(1 + i) // fresh worlds across iterations
		fig, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 || len(fig.Series[0].Points) == 0 {
			b.Fatal("empty figure")
		}
		lastY = fig.Series[0].Points[len(fig.Series[0].Points)-1].Y
	}
	b.ReportMetric(lastY, "series0_lastY")
}

func BenchmarkFig01ConvergenceVsFailureSize(b *testing.B) { benchFigure(b, "fig1") }
func BenchmarkFig02MessagesVsFailureSize(b *testing.B)    { benchFigure(b, "fig2") }
func BenchmarkFig03DelayVsMRAI(b *testing.B)              { benchFigure(b, "fig3") }
func BenchmarkFig04DegreeDistributions(b *testing.B)      { benchFigure(b, "fig4") }
func BenchmarkFig05AverageDegree(b *testing.B)            { benchFigure(b, "fig5") }
func BenchmarkFig06DegreeDependentMRAI(b *testing.B)      { benchFigure(b, "fig6") }
func BenchmarkFig07DynamicMRAI(b *testing.B)              { benchFigure(b, "fig7") }
func BenchmarkFig08UpThreshold(b *testing.B)              { benchFigure(b, "fig8") }
func BenchmarkFig09DownThreshold(b *testing.B)            { benchFigure(b, "fig9") }
func BenchmarkFig10Batching(b *testing.B)                 { benchFigure(b, "fig10") }
func BenchmarkFig11BatchingMessages(b *testing.B)         { benchFigure(b, "fig11") }
func BenchmarkFig12BatchingVsMRAI(b *testing.B)           { benchFigure(b, "fig12") }
func BenchmarkFig13RealisticTopologies(b *testing.B)      { benchFigure(b, "fig13") }
func BenchmarkAblationWithdrawalMRAI(b *testing.B)        { benchFigure(b, "ablation-withdrawal-mrai") }
func BenchmarkAblationBatchNoDiscard(b *testing.B)        { benchFigure(b, "ablation-batch-discard") }
func BenchmarkAblationDynamicSignal(b *testing.B)         { benchFigure(b, "ablation-dynamic-signal") }
func BenchmarkAblationPerDestMRAI(b *testing.B)           { benchFigure(b, "ablation-per-dest-mrai") }
func BenchmarkAblationRouterBatch(b *testing.B)           { benchFigure(b, "ablation-queue-discipline") }
func BenchmarkAblationDeshpandeSikdar(b *testing.B)       { benchFigure(b, "ablation-deshpande-sikdar") }
func BenchmarkAblationDetectionDelay(b *testing.B)        { benchFigure(b, "ablation-detection-delay") }
func BenchmarkAblationOracleMRAI(b *testing.B)            { benchFigure(b, "ablation-oracle-mrai") }
func BenchmarkAblationSuperfluous(b *testing.B)           { benchFigure(b, "ablation-superfluous") }
func BenchmarkAblationDamping(b *testing.B)               { benchFigure(b, "ablation-damping") }
func BenchmarkAblationPolicy(b *testing.B)                { benchFigure(b, "ablation-policy") }
func BenchmarkAblationPrefixScaling(b *testing.B)         { benchFigure(b, "ablation-prefix-scaling") }

// BenchmarkSweepWorkers measures sweep wall-clock scaling with the
// worker-pool size (fig3's grid at reduced scale). Figures are
// byte-identical across worker counts, so the only difference between
// sub-benchmarks is elapsed time; speedup tracks available cores.
func BenchmarkSweepWorkers(b *testing.B) {
	e, err := bgpsim.LookupExperiment("fig3")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := bgpsim.QuickOptions()
			opts.Workers = workers
			for i := 0; i < b.N; i++ {
				opts.Seed = int64(1 + i)
				if _, err := e.Run(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTopologyGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bgpsim.BuildTopology(bgpsim.Skewed7030(120), int64(1+i)); err != nil {
			b.Fatal(err)
		}
	}
}
