package dist

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzCoordinatorBodies posts arbitrary bytes to /v1/lease (complete
// false) or /v1/complete (complete true) of a coordinator whose sweep
// (testSweepCfg: six cells of two trials, run 1) has granted its first
// cell, jobs 0 and 1, to a worker under lease 1. Whatever the body, the
// handler must not panic, must answer 200, 400, 409 or 413, and must
// leave Done ≤ Total with no job recorded that was never leased. The
// seed corpus is testdata/fuzz/FuzzCoordinatorBodies; a plain go test
// runs only those.
func FuzzCoordinatorBodies(f *testing.F) {
	f.Fuzz(func(t *testing.T, complete bool, body []byte) {
		coord, err := NewCoordinator(CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		out := make(chan error, 1)
		go func() {
			_, err := coord.RunSweep(ctx, "test", 0, Options{}, testSweepCfg(nil))
			out <- err
		}()
		defer func() { cancel(); <-out }()
		h := coord.Handler()
		leaseJob(t, h, "w")
		coord.mu.Lock()
		run := coord.cur
		coord.mu.Unlock()

		path := "/v1/lease"
		if complete {
			path = "/v1/complete"
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Errorf("%s: HTTP %d (%s)", path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
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
	})
}
