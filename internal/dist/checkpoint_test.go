package dist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
