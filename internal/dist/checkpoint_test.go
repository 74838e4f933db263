package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgpsim/internal/core"
	"bgpsim/internal/experiment"
)

// TestCheckpointRejectsUnknownSchema: a checkpoint under any schema but
// the current one — a future version, or the cell-granularity v1 that
// pre-trial-lease builds wrote — is refused with an error naming both
// schemas, and the file is left as found for the operator to inspect.
func TestCheckpointRejectsUnknownSchema(t *testing.T) {
	for _, schema := range []string{"bgpsim/dist/checkpoint/v99", "bgpsim/dist/checkpoint/v1"} {
		path := filepath.Join(t.TempDir(), "checkpoint.json")
		body := []byte(`{"schema":"` + schema + `","sweeps":{}}`)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadCheckpoint(path)
		if err == nil {
			t.Fatalf("checkpoint schema %q accepted", schema)
		}
		if msg := err.Error(); !strings.Contains(msg, schema) || !strings.Contains(msg, checkpointSchema) {
			t.Errorf("schema %q: error %q does not name both the found and the wanted schema", schema, msg)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, body) {
			t.Errorf("schema %q: rejected checkpoint was modified on disk: %s", schema, after)
		}
	}
}

// legacyCheckpoint is a schema-v2 file a protocol-v6 coordinator wrote,
// before distributed churn was removed: testSweepCfg as experiment
// "test" with cells 0 and 2 (jobs 0, 1, 4 and 5) done, and a churn
// section holding one finished trial of a three-trial churn run.
const legacyCheckpoint = "testdata/checkpoint-v2-churn.json"

// TestCheckpointV2WithChurnSectionResumes: a checkpoint written before
// churn runs were removed still loads. Its sweep entries resume — the
// sweep key is fingerprinted under recordProtocol, not the current
// protocol — and its churn section is ignored on load and dropped by the
// next save.
func TestCheckpointV2WithChurnSectionResumes(t *testing.T) {
	data, err := os.ReadFile(legacyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(data, &sections); err != nil {
		t.Fatal(err)
	}
	if _, ok := sections["churn"]; !ok {
		t.Fatalf("%s has no churn section", legacyCheckpoint)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{CheckpointPath: path})
	if err != nil {
		t.Fatalf("legacy checkpoint refused: %v", err)
	}
	cfg := testSweepCfg(nil)
	out := make(chan sweepOut, 1)
	go func() {
		fig, err := coord.RunSweep(context.Background(), "test", core.Options{}, cfg)
		out <- sweepOut{fig, err}
	}()
	h := coord.Handler()
	resumed := map[int]bool{0: true, 1: true, 4: true, 5: true}
	for i := 0; i < 4; i++ {
		l := leaseJob(t, h, "w")
		for _, r := range leaseResults(l) {
			if resumed[r.ID] {
				t.Fatalf("job %d, done in the legacy checkpoint, was leased", r.ID)
			}
		}
		if i == 0 {
			if st := coord.Stats(); st.Resumed != 4 {
				t.Fatalf("resumed %d jobs from the legacy checkpoint, want 4", st.Resumed)
			}
		}
		if st := completeJob(t, h, l, leaseResults(l)); st != StatusOK {
			t.Fatalf("complete jobs from %d ack = %q", l.Job.ID, st)
		}
	}
	r := <-out
	if r.err != nil {
		t.Fatal(r.err)
	}
	perCell := make([][]experiment.Result, 6)
	for i := range perCell {
		perCell[i] = fakeResults(i, 2)
	}
	want, err := experiment.AssembleFigure(cfg, perCell)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := r.fig.Render(), want.Render(); got != w {
		t.Errorf("figure resumed from the legacy checkpoint differs from local assembly:\n--- got ---\n%s--- want ---\n%s", got, w)
	}

	saved, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	key, err := fuzzSweepDesc().Key()
	if err != nil {
		t.Fatal(err)
	}
	if sc := saved.Sweeps[key]; sc == nil || len(sc.Done) != 12 {
		t.Errorf("saved checkpoint holds %v under the sweep key, want all 12 jobs", sc)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(after, []byte(`"churn"`)) {
		t.Error("the churn section survived a save")
	}
}
