package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"prophetcritic/internal/checkpoint"
)

// Job states. A job is durable from the moment Submit returns: its
// record is on disk before it enters the queue, and every state
// transition is persisted before it is announced. "running" on disk
// after a restart means the server died mid-job; the scheduler
// re-enqueues it and resumes from the last checkpoint.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one submitted simulation job: the immutable spec and resolved
// workload set, plus the mutable progress the store persists. All
// mutation happens under the scheduler's lock; HTTP handlers receive
// copies.
type Job struct {
	ID        string        `json:"id"`
	Spec      JobSpec       `json:"spec"`
	Workloads []WorkloadRef `json:"workloads"`
	State     string        `json:"state"`
	// Rows holds the finished workloads' metrics, in workload order; a
	// resumed job continues at workload len(Rows).
	Rows    []ResultRow `json:"rows,omitempty"`
	Error   string      `json:"error,omitempty"`
	Resumed bool        `json:"resumed,omitempty"` // continued from a checkpoint after a restart
}

// store is the durability layer: one JSON record per job under jobs/,
// one "PCCK" checkpoint per running job under ck/. All writes are
// atomic (tmp + rename), so a crash never leaves a half-written record.
type store struct {
	dir string
}

func newStore(dir string) (*store, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: a data directory is required")
	}
	for _, sub := range []string{"jobs", "ck"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("service: creating data directory: %w", err)
		}
	}
	return &store{dir: dir}, nil
}

func (st *store) jobPath(id string) string { return filepath.Join(st.dir, "jobs", id+".json") }
func (st *store) ckPath(id string) string  { return filepath.Join(st.dir, "ck", id+".ck") }

// atomicWrite writes data to path via a temp file and rename.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// saveJob persists one job record.
func (st *store) saveJob(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding job %s: %w", j.ID, err)
	}
	if err := atomicWrite(st.jobPath(j.ID), data); err != nil {
		return fmt.Errorf("service: persisting job %s: %w", j.ID, err)
	}
	return nil
}

// loadJobs reads every persisted job record, ordered by ID.
func (st *store) loadJobs() ([]*Job, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.dir, "jobs", e.Name()))
		if err != nil {
			return nil, err
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil {
			return nil, fmt.Errorf("service: corrupt job record %s: %w", e.Name(), err)
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	return jobs, nil
}

// writeCheckpoint atomically persists a job's mid-workload state, a
// checkpoint file's bytes.
func (st *store) writeCheckpoint(id string, data []byte) error {
	return atomicWrite(st.ckPath(id), data)
}

// readCheckpoint loads a job's checkpoint; ok is false when none exists.
func (st *store) readCheckpoint(id string) (meta checkpoint.Meta, dec *checkpoint.Decoder, ok bool, err error) {
	f, err := os.Open(st.ckPath(id))
	if os.IsNotExist(err) {
		return checkpoint.Meta{}, nil, false, nil
	}
	if err != nil {
		return checkpoint.Meta{}, nil, false, err
	}
	defer f.Close()
	meta, dec, err = checkpoint.ReadFile(f)
	if err != nil {
		return checkpoint.Meta{}, nil, false, fmt.Errorf("service: checkpoint for job %s: %w", id, err)
	}
	return meta, dec, true, nil
}

// removeCheckpoint deletes a job's checkpoint (workload finished, or job
// terminal).
func (st *store) removeCheckpoint(id string) {
	os.Remove(st.ckPath(id))
}
