package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// checkpointSchema identifies the on-disk format: sweep results at trial
// granularity. Files under any other schema — including the
// cell-granularity v1 that pre-trial-lease builds wrote — are rejected,
// not migrated: a checkpoint lives for one sweep. Files that builds with
// distributed churn wrote may also carry a "churn" section, which
// loading ignores and the next save drops.
const checkpointSchema = "bgpsim/dist/checkpoint/v2"

// checkpointFile is the on-disk resume state: completed trial jobs per
// sweep, keyed by the descriptor fingerprint (SweepDesc.Key), so one file
// can carry a whole `-fig all` run across restarts and a checkpoint
// recorded for one grid can never be replayed into a different one.
type checkpointFile struct {
	// Schema is checkpointSchema.
	Schema string `json:"schema"`
	// Sweeps maps SweepDesc.Key() to that sweep's completed trial jobs.
	Sweeps map[string]*sweepCheckpoint `json:"sweeps"`
}

// sweepCheckpoint is one sweep's completed trial jobs.
type sweepCheckpoint struct {
	// Desc is the full descriptor, kept for human debugging (the map
	// key is its hash).
	Desc SweepDesc `json:"desc"`
	// Done lists completed trial jobs in completion order.
	Done []JobResult `json:"done"`
}

// loadCheckpoint reads path; a missing file is an empty checkpoint, a
// present-but-unreadable or wrong-schema file is an error (silently
// ignoring one would redo — and double-write — a half-finished sweep).
func loadCheckpoint(path string) (*checkpointFile, error) {
	empty := &checkpointFile{Schema: checkpointSchema, Sweeps: map[string]*sweepCheckpoint{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return empty, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: read checkpoint: %w", err)
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("dist: parse checkpoint %s: %w", path, err)
	}
	if ck.Schema != checkpointSchema {
		return nil, fmt.Errorf("dist: checkpoint %s has schema %q, want %q", path, ck.Schema, checkpointSchema)
	}
	if ck.Sweeps == nil {
		ck.Sweeps = map[string]*sweepCheckpoint{}
	}
	return &ck, nil
}

// save writes the checkpoint atomically (temp file + rename in the
// destination directory), so an interrupt mid-write leaves the previous
// checkpoint intact.
func (ck *checkpointFile) save(path string) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("dist: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("dist: write checkpoint: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("dist: write checkpoint: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("dist: write checkpoint: %w", err)
	}
	return nil
}

// record appends a completed sweep trial job under the sweep key.
func (ck *checkpointFile) record(key string, desc SweepDesc, r JobResult) {
	sc := ck.Sweeps[key]
	if sc == nil {
		sc = &sweepCheckpoint{Desc: desc}
		ck.Sweeps[key] = sc
	}
	sc.Done = append(sc.Done, r)
}
