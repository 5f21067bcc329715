package guard

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp, err := OpenCheckpoint(path, "test:c432")
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Key: "l1 s-a-0", Outcome: "tested", Vector: "0101"},
		{Key: "l2 s-a-1", Outcome: "dropped"},
		{Key: "l3 s-a-0", Outcome: "no-difference"},
	}
	for _, r := range recs {
		if err := cp.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCheckpoint(path, "test:c432")
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(recs) {
		t.Fatalf("resumed Len = %d, want %d", re.Len(), len(recs))
	}
	for _, want := range recs {
		got, ok := re.Lookup(want.Key)
		if !ok || got != want {
			t.Fatalf("Lookup(%q) = %+v/%v, want %+v", want.Key, got, ok, want)
		}
	}
	if _, ok := re.Lookup("l9 s-a-1"); ok {
		t.Fatal("Lookup found a record never put")
	}
}

func TestCheckpointScopeMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp, err := OpenCheckpoint(path, "scope-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Put(Record{Key: "k", Outcome: "tested"}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, "scope-b"); err == nil {
		t.Fatal("OpenCheckpoint accepted a checkpoint from a different scope")
	} else if !strings.Contains(err.Error(), "scope-a") {
		t.Fatalf("scope error does not name the recorded scope: %v", err)
	}
}

func TestCheckpointAutoFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp, err := OpenCheckpoint(path, "s")
	if err != nil {
		t.Fatal(err)
	}
	cp.flushEvery = 2
	cp.Put(Record{Key: "a", Outcome: "tested"})
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("checkpoint flushed before the batch threshold")
	}
	cp.Put(Record{Key: "b", Outcome: "tested"})
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint not flushed at the batch threshold: %v", err)
	}
}

func TestCheckpointNilSafe(t *testing.T) {
	var cp *Checkpoint
	if err := cp.Put(Record{Key: "k", Outcome: "o"}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 0 {
		t.Fatal("nil checkpoint has nonzero Len")
	}
	if _, ok := cp.Lookup("k"); ok {
		t.Fatal("nil checkpoint resolved a lookup")
	}
}

func TestDecodeCheckpointRejects(t *testing.T) {
	bad := []string{
		`{`,                          // malformed JSON
		`{"version":99,"scope":"s"}`, // unknown version
		`{"version":1,"scope":"s","records":[{"key":"","outcome":"tested"}]}`, // empty key
		`{"version":1,"scope":"s","records":[{"key":"k","outcome":""}]}`,      // empty outcome
	}
	for _, s := range bad {
		if _, err := DecodeCheckpoint([]byte(s)); err == nil {
			t.Fatalf("DecodeCheckpoint accepted %q", s)
		}
	}
	if _, err := DecodeCheckpoint([]byte(`{"version":1,"scope":"s","records":[{"key":"k","outcome":"tested"}]}`)); err != nil {
		t.Fatalf("DecodeCheckpoint rejected a valid document: %v", err)
	}
}

// TestCheckpointLegacyShardTagDecodes opens a file written when records
// named the shard lane that completed them: the "shard" keys are
// ignored, every record restores, and the next flush drops them.
func TestCheckpointLegacyShardTagDecodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	legacy := `{"version":1,"scope":"shard-scope","records":[` +
		`{"key":"f1","outcome":"tested","vector":"010","shard":"shard2"},` +
		`{"key":"f2","outcome":"dropped","shard":"shard0"},` +
		`{"key":"f3","outcome":"no-difference"}]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenCheckpoint(path, "shard-scope")
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Key: "f1", Outcome: "tested", Vector: "010"},
		{Key: "f2", Outcome: "dropped"},
		{Key: "f3", Outcome: "no-difference"},
	}
	if cp.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", cp.Len(), len(want))
	}
	for _, w := range want {
		if r, ok := cp.Lookup(w.Key); !ok || r != w {
			t.Fatalf("Lookup(%s) = %+v, %v; want %+v", w.Key, r, ok, w)
		}
	}
	if err := cp.Put(Record{Key: "f4", Outcome: "dropped"}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"shard"`) {
		t.Fatalf("rewritten file still carries shard keys:\n%s", data)
	}
}

// TestCheckpointTruncatedFile simulates the file a crashing process
// without atomic writes would leave behind: a valid document cut at
// every possible byte offset. Each truncation must surface as a typed
// *DecodeError — never a panic, never a silently half-loaded resume.
func TestCheckpointTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cp, err := OpenCheckpoint(path, "trunc-scope")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Record{
		{Key: "l1 s-a-0", Outcome: "tested", Vector: "0101"},
		{Key: "l2 s-a-1", Outcome: "dropped"},
	} {
		if err := cp.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Trailing whitespace is not load-bearing; every cut below must
	// remove at least the document's closing brace.
	data = []byte(strings.TrimRight(string(data), "\n"))
	for cut := 1; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenCheckpoint(path, "trunc-scope")
		if err == nil {
			// Some prefixes happen to parse (e.g. the array cut between
			// complete records would not, but defensively: a nil error
			// must mean the whole document survived, which it cannot).
			t.Fatalf("OpenCheckpoint accepted a %d/%d-byte truncation", cut, len(data))
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("truncation at %d: error is not a *DecodeError: %v", cut, err)
		}
	}
}

// TestCheckpointPartialGarbage covers the other half of "partially
// written": plausible-looking but invalid documents.
func TestCheckpointPartialGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	for _, body := range []string{
		"",                                       // empty file
		"\x00\x01\x02",                           // binary garbage
		`{"version":1`,                           // cut mid-header
		`[1,2,3]`,                                // valid JSON, wrong shape... decodes to zero version
		`{"version":2,"scope":"s","records":[]}`, // future version
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenCheckpoint(path, "s")
		if err == nil {
			t.Fatalf("OpenCheckpoint accepted %q", body)
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("damage %q: error is not a *DecodeError: %v", body, err)
		}
		if de.Unwrap() == nil {
			t.Fatalf("damage %q: DecodeError has no cause", body)
		}
	}
	// A quarantine-and-retry — what the service layer does on decode
	// errors — must then yield a working fresh checkpoint.
	if err := os.Rename(path, path+".corrupt"); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenCheckpoint(path, "s")
	if err != nil {
		t.Fatalf("fresh checkpoint after quarantine: %v", err)
	}
	if cp.Len() != 0 {
		t.Fatalf("fresh checkpoint has %d records", cp.Len())
	}
}

func TestCheckpointSetFlushEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp, err := OpenCheckpoint(path, "s")
	if err != nil {
		t.Fatal(err)
	}
	cp.SetFlushEvery(0) // clamps to 1: flush on every put
	if err := cp.Put(Record{Key: "a", Outcome: "tested"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("SetFlushEvery(0) did not flush on first put: %v", err)
	}
	var nilCp *Checkpoint
	nilCp.SetFlushEvery(7) // nil-safe
}
