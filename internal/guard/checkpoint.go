package guard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// checkpointVersion is bumped only on incompatible format changes; the
// decoder rejects versions it does not understand instead of guessing.
const checkpointVersion = 1

// DefaultFlushEvery is how many new records a Checkpoint accumulates
// before it rewrites its file. Small enough that a killed run loses
// little work, large enough that checkpointing stays off the per-item
// critical path.
const DefaultFlushEvery = 64

// DecodeError reports that checkpoint (or checkpoint-encoded journal)
// bytes failed to parse or validate — a truncated file after a crash, a
// partially-written document, a foreign format. It is a typed error so
// callers can tell "the file is damaged, start fresh" (recoverable by
// quarantining the file) from I/O failures that deserve a retry:
//
//	var de *guard.DecodeError
//	if errors.As(err, &de) { /* quarantine + fresh run */ }
type DecodeError struct {
	Cause error
}

func (e *DecodeError) Error() string { return "guard: decoding checkpoint: " + e.Cause.Error() }

// Unwrap exposes the underlying parse/validation failure.
func (e *DecodeError) Unwrap() error { return e.Cause }

// Record is one completed work item in a checkpoint: the key identifies
// the item (fault name), the outcome is its terminal classification and
// the optional fields carry what the resumed run needs to avoid
// recomputation (the witness vector for tested faults, the reason for
// untestable ones).
type Record struct {
	Key     string `json:"key"`
	Outcome string `json:"outcome"` // "tested", "dropped", "random", an untestability reason, ...
	Reason  string `json:"reason,omitempty"`
	Vector  string `json:"vector,omitempty"`
}

// CheckpointFile is the on-disk JSON checkpoint document.
type CheckpointFile struct {
	Version int      `json:"version"`
	Scope   string   `json:"scope"`
	Records []Record `json:"records"`
}

// Checkpoint persists completed per-work-item results so a killed run
// can resume without recomputing them. Only *completed* outcomes belong
// in a checkpoint; aborted or timed-out items are deliberately not
// recorded, so a resumed run attempts them again.
//
// Writes are atomic (temp file + rename) and batched: every
// DefaultFlushEvery puts, plus a final Flush from the caller. All
// methods are safe for concurrent use.
type Checkpoint struct {
	mu         sync.Mutex
	path       string
	scope      string
	recs       map[string]Record
	order      []string // insertion order, for deterministic files
	dirty      int
	flushEvery int
}

// OpenCheckpoint opens (or creates) the checkpoint at path for the given
// scope. The scope names what the results are valid for — circuit,
// digital block, constraint configuration — and a file recorded under a
// different scope is rejected rather than silently misapplied.
func OpenCheckpoint(path, scope string) (*Checkpoint, error) {
	cp := &Checkpoint{
		path:       path,
		scope:      scope,
		recs:       map[string]Record{},
		flushEvery: DefaultFlushEvery,
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return cp, nil
	}
	if err != nil {
		return nil, fmt.Errorf("guard: reading checkpoint %s: %w", path, err)
	}
	f, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("guard: checkpoint %s: %w", path, err)
	}
	if f.Scope != scope {
		return nil, fmt.Errorf("guard: checkpoint %s was recorded for %q, this run is %q — delete it or point -checkpoint elsewhere",
			path, f.Scope, scope)
	}
	for _, r := range f.Records {
		if _, dup := cp.recs[r.Key]; !dup {
			cp.order = append(cp.order, r.Key)
		}
		cp.recs[r.Key] = r
	}
	return cp, nil
}

// DecodeCheckpoint parses and validates a checkpoint document. It is the
// single entry point for untrusted checkpoint bytes (and the fuzz
// target), so every load path gets the same validation.
func DecodeCheckpoint(data []byte) (*CheckpointFile, error) {
	var f CheckpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, &DecodeError{Cause: fmt.Errorf("parsing checkpoint: %w", err)}
	}
	if f.Version != checkpointVersion {
		return nil, &DecodeError{Cause: fmt.Errorf("unsupported checkpoint version %d (want %d)", f.Version, checkpointVersion)}
	}
	for i, r := range f.Records {
		if r.Key == "" {
			return nil, &DecodeError{Cause: fmt.Errorf("checkpoint record %d has an empty key", i)}
		}
		if r.Outcome == "" {
			return nil, &DecodeError{Cause: fmt.Errorf("checkpoint record %q has an empty outcome", r.Key)}
		}
	}
	return &f, nil
}

// Scope returns the scope string this checkpoint was opened with.
func (c *Checkpoint) Scope() string { return c.scope }

// SetFlushEvery overrides how many new records accumulate before the
// file is rewritten (DefaultFlushEvery unless set). A long-running
// service lowers it so a SIGKILL loses less completed work; values
// below 1 flush on every Put. Nil-safe.
func (c *Checkpoint) SetFlushEvery(n int) {
	if c == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	c.flushEvery = n
	c.mu.Unlock()
}

// Len returns how many completed records the checkpoint holds.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// Lookup returns the completed record for key, if one exists. Nil-safe.
func (c *Checkpoint) Lookup(key string) (Record, bool) {
	if c == nil {
		return Record{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.recs[key]
	return r, ok
}

// Put records one completed work item and flushes the file when the
// batch threshold is reached. Nil-safe (a nil checkpoint drops the
// record), so pipeline code can call it unconditionally.
func (c *Checkpoint) Put(r Record) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	if _, dup := c.recs[r.Key]; !dup {
		c.order = append(c.order, r.Key)
	}
	c.recs[r.Key] = r
	c.dirty++
	need := c.dirty >= c.flushEvery
	c.mu.Unlock()
	if need {
		return c.Flush()
	}
	return nil
}

// Flush rewrites the checkpoint file atomically (temp file in the same
// directory, then rename). A checkpoint with no records removes nothing
// and writes an empty document, so resume logic never confuses "no
// checkpoint" with "empty checkpoint".
func (c *Checkpoint) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	f := CheckpointFile{Version: checkpointVersion, Scope: c.scope}
	keys := append([]string(nil), c.order...)
	sort.Strings(keys)
	for _, k := range keys {
		f.Records = append(f.Records, c.recs[k])
	}
	c.dirty = 0
	c.mu.Unlock()

	if err := WriteFileAtomic(c.path, func(w io.Writer) error {
		return writeCheckpoint(w, &f)
	}); err != nil {
		return fmt.Errorf("guard: checkpoint flush: %w", err)
	}
	return nil
}

// WriteFileAtomic writes a file via the temp-file-in-same-directory +
// rename protocol the checkpoint uses, so a crash (even SIGKILL) at any
// instant leaves either the previous complete file or the new complete
// file — never a truncated hybrid. It is exported for the other durable
// stores of the pipeline (the service job journal) that need the same
// guarantee.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if serr := tmp.Sync(); err == nil {
		err = serr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func writeCheckpoint(w io.Writer, f *CheckpointFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}
