package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bgpsim/internal/core"
)

// FuzzCoordinatorBodies posts arbitrary bytes to /v1/lease (complete
// false) or /v1/complete (complete true) of a coordinator whose sweep
// (testSweepCfg: six cells of two trials, run 1) has granted its first
// cell, jobs 0 and 1, to a worker under lease 1. The body is posted
// twice, as a retry after a lost reply would be, on a clock that never
// reaches the lease TTL. Whatever the body, the handler must not panic,
// must answer 200, 400, 409 or 413 with a reply that decodes, and must
// leave Done ≤ Total with no job recorded that was never leased. A
// completion whose first post was granted a lease must be granted the
// same one again. No job may be held by two live leases, and Dispatched
// must equal the jobs of the grants the replies carried, never more than
// the run's jobs plus its reassignments. The seed corpus is
// testdata/fuzz/FuzzCoordinatorBodies; a plain go test runs only those.
func FuzzCoordinatorBodies(f *testing.F) {
	f.Fuzz(func(t *testing.T, complete bool, body []byte) {
		clk := newFakeClock()
		coord, err := NewCoordinator(CoordinatorConfig{Clock: clk.now})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		out := make(chan error, 1)
		go func() {
			_, err := coord.RunSweep(ctx, "test", core.Options{}, testSweepCfg(nil))
			out <- err
		}()
		defer func() { cancel(); <-out }()
		h := coord.Handler()
		grants := map[int64]LeaseResponse{}
		first := leaseJob(t, h, "w")
		grants[first.Lease] = first
		coord.mu.Lock()
		run := coord.cur
		coord.mu.Unlock()

		path := "/v1/lease"
		if complete {
			path = "/v1/complete"
		}
		var acked []*LeaseResponse
		for try := 0; try < 2; try++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch w.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			default:
				t.Errorf("%s: HTTP %d (%s)", path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
			}
			if w.Code != http.StatusOK {
				acked = append(acked, nil)
				continue
			}
			var grant *LeaseResponse
			if complete {
				var ack CompleteResponse
				err = json.Unmarshal(w.Body.Bytes(), &ack)
				grant = ack.Next
			} else {
				grant = new(LeaseResponse)
				err = json.Unmarshal(w.Body.Bytes(), grant)
			}
			if err != nil {
				t.Fatalf("%s: reply %q: %v", path, w.Body.Bytes(), err)
			}
			acked = append(acked, grant)
			if grant != nil && grant.Status == StatusJob {
				grants[grant.Lease] = *grant
			}
		}
		if complete && acked[0] != nil && acked[0].Status == StatusJob && !reflect.DeepEqual(acked[0], acked[1]) {
			t.Errorf("retried completion granted %+v, first post %+v", acked[1], acked[0])
		}
		if st := coord.Stats(); st.Done > st.Total {
			t.Errorf("Stats: done %d > total %d", st.Done, st.Total)
		}
		coord.mu.Lock()
		defer coord.mu.Unlock()
		if run.table.done > run.total {
			t.Errorf("table: done %d > total %d", run.table.done, run.total)
		}
		for id, j := range run.table.jobs {
			if j.done && j.lease == 0 {
				t.Errorf("job %d recorded but never leased", id)
			}
		}
		granted, jobs := 0, map[int]bool{}
		for _, g := range grants {
			granted += g.Count
			for id := g.Job.ID; id < g.Job.ID+g.Count; id++ {
				jobs[id] = true
				if j := run.table.jobs[id]; !j.done && j.lease != g.Lease {
					t.Errorf("job %d held by lease %d and by live lease %d", id, g.Lease, j.lease)
				}
			}
		}
		reassigned := granted - len(jobs)
		if coord.dispatched != int64(granted) || granted > run.total+reassigned {
			t.Errorf("Dispatched %d, replies granted %d jobs, run has %d jobs and %d reassignments",
				coord.dispatched, granted, run.total, reassigned)
		}
	})
}

// FuzzCheckpointLoad hands arbitrary bytes to NewCoordinator as its
// checkpoint file, then installs a small sweep (testSweepCfg, 12 trial
// jobs) on it. Nothing may panic. A file is either refused with an
// error, or the sweep resumes exactly the entries recorded under its own
// key whose id is in range and whose payload is one trial's result — the
// first such entry per id — and nothing else. A "churn" section, which
// builds with distributed churn wrote, is ignored whatever it holds. The
// seed corpus is built below from the real key, so it stays valid when
// the descriptor changes shape, plus a file an earlier coordinator wrote.
func FuzzCheckpointLoad(f *testing.F) {
	sweepKey, err := fuzzSweepDesc().Key()
	if err != nil {
		f.Fatal(err)
	}
	// churnTrials is a churn section as earlier builds wrote it, holding
	// the given trials of one run.
	churnTrials := func(key string, trials ...int) json.RawMessage {
		var done []string
		for _, id := range trials {
			done = append(done, fmt.Sprintf(`{"id":%d,"trial":{"trial":%d,"start":1000000000,"windows":null}}`, id, id))
		}
		return json.RawMessage(`{"` + key + `":{"done":[` + strings.Join(done, ",") + `]}}`)
	}
	seed := func(sweeps map[string]*sweepCheckpoint, churn json.RawMessage) []byte {
		b, err := json.Marshal(struct {
			checkpointFile
			Churn json.RawMessage `json:"churn,omitempty"`
		}{checkpointFile{Schema: checkpointSchema, Sweeps: sweeps}, churn})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := seed(map[string]*sweepCheckpoint{sweepKey: {Done: []JobResult{trialResult(0), trialResult(3)}}},
		churnTrials("churn-run", 1))
	var all []JobResult
	for id := 0; id < 12; id++ {
		all = append(all, trialResult(id))
	}
	// A partial resume beside a churn section.
	f.Add(valid)
	// Truncated JSON.
	f.Add(valid[:len(valid)/2])
	// A duplicated job id: the first entry is the one resumed.
	f.Add(seed(map[string]*sweepCheckpoint{sweepKey: {Done: []JobResult{
		trialResult(2), {ID: 2, Results: fakeResults(99, 1)}, trialResult(5)}}}, nil))
	// A wrong schema.
	f.Add(bytes.Replace(valid, []byte(checkpointSchema), []byte("bgpsim/dist/checkpoint/v1"), 1))
	// Churn trials under the sweep's own key, in the churn section.
	f.Add(seed(nil, churnTrials(sweepKey, 0, 1)))
	// Negative and out-of-range ids.
	f.Add(seed(map[string]*sweepCheckpoint{sweepKey: {Done: []JobResult{
		{ID: -1, Results: fakeResults(0, 1)}, {ID: 12, Results: fakeResults(0, 1)}, trialResult(11)}}},
		churnTrials("churn-run", -1, 3, 2)))
	// The whole sweep, which then finishes without a worker.
	f.Add(seed(map[string]*sweepCheckpoint{sweepKey: {Done: all}}, nil))
	// A null entry under the sweep key.
	f.Add([]byte(`{"schema":"` + checkpointSchema + `","sweeps":{"` + sweepKey + `":null}}`))
	// A file a protocol-v6 coordinator wrote, with a churn section.
	legacy, err := os.ReadFile(legacyCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "checkpoint.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(CoordinatorConfig{CheckpointPath: path})
		if err != nil {
			return // refused
		}
		var done []JobResult
		if sc := coord.ckpt.Sweeps[sweepKey]; sc != nil {
			done = sc.Done
		}
		checkResumed(t, coord, sweepKey, 12, done)
	})
}

// fuzzSweepDesc is the descriptor RunSweep builds for testSweepCfg as
// experiment "test".
func fuzzSweepDesc() SweepDesc {
	return SweepDesc{Protocol: ProtocolVersion, Experiment: "test", Grid: Grid{Series: 2, Xs: 3, Trials: 2}}
}

// checkResumed runs testSweepCfg as experiment "test" on coord until it
// is seen active, and compares what the run resumed with what it should
// have: the first entry of done for each id in [0, total) that is one
// trial's result. A run that finishes before it is seen must have
// resumed every job.
func checkResumed(t *testing.T, coord *Coordinator, key string, total int, done []JobResult) {
	t.Helper()
	want := map[int]JobResult{}
	for _, d := range done {
		if _, dup := want[d.ID]; !dup && d.ID >= 0 && d.ID < total && len(d.Results) == 1 {
			want[d.ID] = d
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan error, 1)
	go func() {
		_, err := coord.RunSweep(ctx, "test", core.Options{}, testSweepCfg(nil))
		out <- err
	}()
	defer func() { cancel(); <-out }()
	for {
		coord.mu.Lock()
		if run := coord.cur; run != nil {
			defer coord.mu.Unlock()
			if run.key != key || run.total != total {
				t.Fatalf("run has key %s and %d jobs, want %s and %d", run.key, run.total, key, total)
			}
			if run.resumed != len(want) || run.table.done != len(want) {
				t.Errorf("resumed %d (table done %d), want %d", run.resumed, run.table.done, len(want))
			}
			for id, j := range run.table.jobs {
				w, ok := want[id]
				switch {
				case j.done != ok:
					t.Errorf("job %d resumed %v, want %v", id, j.done, ok)
				case ok && (j.result.ID != id || !j.result.equal(w)):
					t.Errorf("job %d resumed %+v, want %+v", id, j.result, w)
				}
			}
			return
		}
		coord.mu.Unlock()
		select {
		case err := <-out:
			out <- err
			if err != nil || len(want) != total {
				t.Fatalf("run ended unseen (err %v) having %d of %d jobs to resume", err, len(want), total)
			}
			return
		default:
			runtime.Gosched()
		}
	}
}
