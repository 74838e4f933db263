package dist

import (
	"context"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/core"
	"bgpsim/internal/experiment"
)

// descFor builds the descriptor a coordinator would publish for expID's
// grid at opts, grid shape included.
func descFor(t *testing.T, expID string, opts core.Options) SweepDesc {
	t.Helper()
	exp, err := core.Lookup(expID)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := exp.Grid(opts)
	if err == nil {
		cfg, err = experiment.NormalizeSweep(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return SweepDesc{
		Protocol: ProtocolVersion, Experiment: exp.ID, Options: opts,
		Grid: Grid{Series: len(cfg.SeriesNames), Xs: len(cfg.Xs), Trials: cfg.Trials},
	}
}

// TestRegistryRunnerMemo pins that remembering the last descriptor's
// grid cannot show in results: one runner serving two sweeps' jobs
// alternately — so every job but the first invalidates the memo — returns
// what a fresh runner returns for each job, whether the sweeps differ in
// seed or in experiment; and that a descriptor the worker must refuse is
// refused for every job, not only the one that resolved it, also when it
// differs from the remembered one in nothing but the refused field.
func TestRegistryRunnerMemo(t *testing.T) {
	ctx := context.Background()
	reseeded := goldenOptions()
	reseeded.Seed = 2
	a := descFor(t, "fig3", goldenOptions())
	for name, b := range map[string]SweepDesc{
		"seed":       descFor(t, "fig3", reseeded),
		"experiment": descFor(t, "fig4", goldenOptions()),
	} {
		shared := RegistryRunner(1)
		for i := 0; i < 3; i++ {
			for _, desc := range []SweepDesc{a, b, b, a} { // hits and misses both ways
				job := Job{Series: i % desc.Grid.Series, X: (2 * i) % desc.Grid.Xs}
				got, err := shared(ctx, desc, job, 1)
				if err != nil {
					t.Fatalf("%s: shared runner: %v", name, err)
				}
				want, err := RegistryRunner(1)(ctx, desc, job, 1)
				if err != nil {
					t.Fatalf("%s: fresh runner: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %s job %+v: memoized runner %+v, fresh runner %+v", name, desc.Experiment, job, got, want)
				}
			}
		}
	}

	wrongProtocol, wrongGrid := a, a
	wrongProtocol.Protocol = "bgpsim/dist/v5"
	wrongGrid.Grid.Xs++
	for name, bad := range map[string]SweepDesc{"protocol": wrongProtocol, "grid": wrongGrid} {
		runner := RegistryRunner(1)
		for i := 0; i < 3; i++ {
			if _, err := runner(ctx, a, Job{}, 1); err != nil {
				t.Fatalf("good descriptor, round %d: %v", i, err)
			}
			for j := 0; j < 2; j++ {
				if _, err := runner(ctx, bad, Job{}, 1); err == nil {
					t.Errorf("wrong %s accepted (round %d, job %d)", name, i, j)
				}
			}
		}
	}
}

// raceEnabled reports whether the test binary was built with -race,
// under which sync.Pool drops a quarter of what it is given, net/http's
// pooled readers and writers included.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestLeaseCompleteAllocBudget pins what the protocol itself costs: a
// job whose execution is free — a lease of its cell's ten trials, a no-op
// runner, one complete for all ten that also grants the next lease, over
// a real loopback connection, both ends in this process — allocates
// 1.7 kB on average, most of it a tenth of net/http's per-request state
// (the budget is 1.3 times that). It was 2.6 kB when a lease and its
// complete were two exchanges, 19.1 kB when every trial had a lease and a
// complete of its own, and 22.4 kB before that, when each exchange built
// a JSON decoder and its buffer on both ends, a fresh request URL and a
// log line for a discarding logger.
func TestLeaseCompleteAllocBudget(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	result := fakeResults(1, 10)
	w := &Worker{
		Base: srv.URL, ID: "w", PollInterval: time.Millisecond,
		Runner: func(_ context.Context, _ SweepDesc, _ Job, n int) ([]experiment.Result, error) {
			return result[:n], nil
		},
	}
	done := make(chan error, 1)
	go func() { done <- w.Work(context.Background()) }()

	const jobs = 200
	cfg := experiment.SweepConfig{SeriesNames: []string{"a", "b"}, Xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, Trials: 10}
	sweep := func() {
		if _, err := coord.RunSweep(context.Background(), "test", core.QuickOptions(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // connections, buffers, the worker's encoder
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	sweep()
	runtime.ReadMemStats(&ms)
	perJob := (ms.TotalAlloc - before) / jobs
	coord.Shutdown()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t.Logf("%d B per job", perJob)
	if raceEnabled() {
		t.Skip("the exchanges ran under the detector; their cost in bytes (3 x) says nothing there")
	}
	const budget = 2_200
	if perJob > budget {
		t.Errorf("a job's share of complete+lease allocates %d B, budget %d", perJob, budget)
	}
}

// TestWorkerRefusesV2Descriptor: protocol v2 carried shards and
// shard_concurrent, which a later worker no longer reads, so it would run
// a v2 sharded job on one event loop and submit bytes of another
// determinism class; a v3 coordinator leases one trial at a time and
// reads one result per completion; a v4 coordinator never grants a lease
// with an acknowledgement; a v5 coordinator addresses a sweep by its
// index among an experiment's sweeps; a v6 coordinator also leases churn
// trials, which this worker cannot run. The runner refuses each of these
// versions, naming both versions.
func TestWorkerRefusesV2Descriptor(t *testing.T) {
	ctx := context.Background()
	for _, old := range []string{"bgpsim/dist/v2", "bgpsim/dist/v3", "bgpsim/dist/v4", "bgpsim/dist/v5", "bgpsim/dist/v6"} {
		sweep := descFor(t, "fig3", goldenOptions())
		sweep.Protocol = old
		_, err := RegistryRunner(1)(ctx, sweep, Job{}, 1)
		if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), ProtocolVersion) {
			t.Errorf("%s descriptor gave %v, want a refusal naming %q and %q", old, err, old, ProtocolVersion)
		}
	}
}
