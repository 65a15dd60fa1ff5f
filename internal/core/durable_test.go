package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avd/internal/scenario"
)

func durablePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.ckpt")
}

// engineSpace is the composed hyperspace of the shared test plugins.
func engineSpace(t *testing.T) *scenario.Space {
	t.Helper()
	s, err := Space(twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDurableResume: a campaign journaled to a durable checkpoint,
// killed (simulated by just dropping the handle) and resumed must be
// bit-identical to an uninterrupted run of the same seed, with the
// Controller's novelty archive proposing after the resume point.
func TestDurableResume(t *testing.T) {
	space := engineSpace(t)
	path := durablePath(t)

	// Uninterrupted reference.
	ref, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 5)), WithBudget(80), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	refResults, err := ref.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if archiveTurns(refResults[15:]) == 0 {
		t.Fatal("the novelty archive proposed nothing after the resume point")
	}
	refFP, err := FingerprintResults(refResults)
	if err != nil {
		t.Fatal(err)
	}

	// First leg: 15 of the 80 tests, then the process "dies" without
	// Close — the journal alone must carry the progress.
	d1, info, err := OpenDurable(path, space)
	if err != nil {
		t.Fatal(err)
	}
	if info.Resumed() != 0 {
		t.Fatalf("fresh durable state resumed %d results", info.Resumed())
	}
	leg1, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 5)), WithBudget(15), WithWorkers(2), WithDurable(d1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leg1.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate SIGKILL after the last batch's journal fsync.

	// Second leg resumes from the journal and finishes the budget.
	d2, info, err := OpenDurable(path, space)
	if err != nil {
		t.Fatal(err)
	}
	if info.Resumed() != 15 {
		t.Fatalf("resumed %d results, want 15 (%s)", info.Resumed(), info)
	}
	if info.JournalResults == 0 {
		t.Fatalf("expected journal frames to carry the un-snapshotted results: %s", info)
	}
	leg2, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 5)), WithBudget(80), WithWorkers(2), WithDurable(d2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leg2.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := FingerprintResults(d2.Checkpoint().Results())
	if err != nil {
		t.Fatal(err)
	}
	if got != refFP {
		t.Fatalf("resumed campaign fingerprint %s != uninterrupted %s", got, refFP)
	}

	// Third open: everything is in the snapshot now, journal empty.
	results, info, err := ReadDurableResults(path, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 80 || info.JournalFrames != 0 || info.TornTail {
		t.Fatalf("after Close: %d results, %s", len(results), info)
	}
}

// TestDurableTornJournalTail: a journal cut mid-frame (SIGKILL during
// the append write) must recover every fully fsynced batch and truncate
// the torn frame.
func TestDurableTornJournalTail(t *testing.T) {
	space := engineSpace(t)
	path := durablePath(t)
	d, _, err := OpenDurable(path, space)
	if err != nil {
		t.Fatal(err)
	}
	run := pureRunner()
	var batches [][]Result
	for b := 0; b < 3; b++ {
		var batch []Result
		for i := 0; i < 4; i++ {
			sc := space.New(map[string]int64{"x": int64(b*4 + i), "y": int64(i)})
			batch = append(batch, run.Run(sc))
		}
		batches = append(batches, batch)
		d.Checkpoint().appendBatch(batch)
		if err := d.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the handle without Close and tear the last frame.
	jpath := path + ".journal"
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, info, err := OpenDurable(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !info.TornTail {
		t.Fatalf("torn tail not detected: %s", info)
	}
	if info.Resumed() != 8 {
		t.Fatalf("recovered %d results, want the 8 from intact frames (%s)", info.Resumed(), info)
	}
	want := append(append([]Result{}, batches[0]...), batches[1]...)
	wantFP, _ := FingerprintResults(want)
	gotFP, _ := FingerprintResults(d2.Checkpoint().Results())
	if gotFP != wantFP {
		t.Fatalf("recovered prefix diverges from the intact batches")
	}
	// The truncation must leave a journal that appends cleanly.
	d2.Checkpoint().appendBatch(batches[2])
	if err := d2.Append(batches[2]); err != nil {
		t.Fatal(err)
	}
	results, info2, err := ReadDurableResults(path, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 || info2.TornTail {
		t.Fatalf("after re-append: %d results, torn=%v", len(results), info2.TornTail)
	}
}

// TestDurableSnapshotCrashWindow: a crash between the snapshot rename
// and the journal reset leaves old frames behind a snapshot that
// already contains them; recovery must skip them, not double-count.
func TestDurableSnapshotCrashWindow(t *testing.T) {
	space := engineSpace(t)
	path := durablePath(t)
	d, _, err := OpenDurable(path, space)
	if err != nil {
		t.Fatal(err)
	}
	run := pureRunner()
	var all []Result
	for b := 0; b < 2; b++ {
		var batch []Result
		for i := 0; i < 3; i++ {
			sc := space.New(map[string]int64{"x": int64(b*3 + i), "y": int64(2 * i)})
			batch = append(batch, run.Run(sc))
		}
		all = append(all, batch...)
		// Mirror the engine's WithDurable ordering: in-memory checkpoint
		// first, then the journal sink.
		d.Checkpoint().appendBatch(batch)
		if err := d.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	jpath := path + ".journal"
	preSnapshot, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: restore the journal as it was before
	// the reset, so its frames overlap the fresh snapshot.
	if err := os.WriteFile(jpath, preSnapshot, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, info, err := OpenDurable(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Resumed() != len(all) {
		t.Fatalf("recovered %d results, want %d exactly once (%s)", info.Resumed(), len(all), info)
	}
	if info.JournalResults != 0 {
		t.Fatalf("overlapping journal frames were replayed: %s", info)
	}
	wantFP, _ := FingerprintResults(all)
	gotFP, _ := FingerprintResults(d2.Checkpoint().Results())
	if gotFP != wantFP {
		t.Fatalf("crash-window recovery diverged")
	}
}

// TestDurableGarbageFiles: state files that were never checkpoints are
// refused loudly instead of silently overwritten.
func TestDurableGarbageFiles(t *testing.T) {
	space := engineSpace(t)
	path := durablePath(t)
	if err := os.WriteFile(path, []byte("{\"not\":\"a checkpoint\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenDurable(path, space)
	var ckErr *CheckpointError
	if !errors.As(err, &ckErr) || ckErr.Kind != CheckpointGarbage {
		t.Fatalf("garbage snapshot: got %v, want CheckpointGarbage", err)
	}

	path2 := filepath.Join(t.TempDir(), "c2.ckpt")
	if err := os.WriteFile(path2+".journal", []byte("NOTMAGIC plus trailing junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenDurable(path2, space)
	if !errors.As(err, &ckErr) || ckErr.Kind != CheckpointGarbage {
		t.Fatalf("garbage journal: got %v, want CheckpointGarbage", err)
	}
}

// TestDecodeCheckpointTypedErrors pins the typed-error contract: torn
// tails report the recovered prefix, garbage reports nothing usable,
// and mid-file damage is distinguished from both.
func TestDecodeCheckpointTypedErrors(t *testing.T) {
	space := engineSpace(t)
	run := pureRunner()
	ck := NewCheckpoint()
	for i := 0; i < 3; i++ {
		ck.append(run.Run(space.New(map[string]int64{"x": int64(i), "y": int64(i)})))
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	lines := strings.SplitAfter(full, "\n")

	var ckErr *CheckpointError
	t.Run("torn tail", func(t *testing.T) {
		torn := full[:strings.LastIndex(full, "\nr ")+10] // cut inside the last r line
		_, err := DecodeCheckpoint(strings.NewReader(torn), space)
		if !errors.As(err, &ckErr) || ckErr.Kind != CheckpointTornTail {
			t.Fatalf("got %v, want CheckpointTornTail", err)
		}
		if ckErr.Recovered != 2 || ckErr.Partial == nil || ckErr.Partial.Len() != 2 {
			t.Fatalf("recovered %d results (partial %v), want 2", ckErr.Recovered, ckErr.Partial)
		}
		if !strings.Contains(err.Error(), "torn tail") || !strings.Contains(err.Error(), "2 complete results") {
			t.Fatalf("torn-tail message not actionable: %v", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		_, err := DecodeCheckpoint(strings.NewReader("hello world\n"), space)
		if !errors.As(err, &ckErr) || ckErr.Kind != CheckpointGarbage {
			t.Fatalf("got %v, want CheckpointGarbage", err)
		}
		if !strings.Contains(err.Error(), "not a checkpoint") {
			t.Fatalf("garbage message not actionable: %v", err)
		}
	})
	t.Run("mid-file corruption", func(t *testing.T) {
		// Damage line 2 (the first record) while lines 3-4 remain intact.
		corrupt := lines[0] + "r bogus\n" + strings.Join(lines[2:], "")
		_, err := DecodeCheckpoint(strings.NewReader(corrupt), space)
		if !errors.As(err, &ckErr) || ckErr.Kind != CheckpointCorrupt {
			t.Fatalf("got %v, want CheckpointCorrupt", err)
		}
	})
}
