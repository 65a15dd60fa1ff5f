package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
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

	// leg opens the durable state at p, checks it resumes the given count,
	// and runs the campaign to budget with procs tests at once (0: as
	// many as now), returning the state still open.
	leg := func(p string, budget, procs, resumes int) *DurableCheckpoint {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d, info, err := OpenDurable(p, space)
		if err != nil {
			t.Fatal(err)
		}
		if info.Results != resumes {
			t.Fatalf("resumed %d results, want %d (%s)", info.Results, resumes, info)
		}
		eng, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 5)), WithBudget(budget), WithWorkers(2), WithDurable(d))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		return d
	}

	// First leg: 15 of the 80 tests, then the process "dies" without
	// Close — the journal alone must carry the progress.
	leg(path, 15, 0, 0)
	// No Close: simulate SIGKILL after the last batch's journal fsync.

	// Second leg resumes from the journal and finishes the budget.
	d2 := leg(path, 80, 0, 15)
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

	// Third open, after a clean Close: the journal alone holds all 80
	// results, and both readers recover them.
	d3, info, err := OpenDurable(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got, _ := FingerprintResults(d3.Checkpoint().Results()); got != refFP || info.Results != 80 || info.TornTail {
		t.Fatalf("reopen after Close: %s, fingerprint %s, want 80 results and %s", info, got, refFP)
	}
	results, readInfo, err := ReadDurableResults(path, space)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := FingerprintResults(results); got != refFP || readInfo != info {
		t.Fatalf("ReadDurableResults after Close: %s, fingerprint %s; OpenDurable: %s, %s", readInfo, got, info, refFP)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path)+".journal" {
		t.Fatalf("durable state wrote %v, want the journal alone", entries)
	}

	// Fourth leg, elastic: a journal written two tests at a time resumes
	// one at a time. Concurrency is recorded nowhere and moves nothing.
	elastic := durablePath(t)
	leg(elastic, 15, 2, 0)
	d4 := leg(elastic, 80, 1, 15)
	defer d4.Close()
	if got, _ := FingerprintResults(d4.Checkpoint().Results()); got != refFP {
		t.Fatalf("resumed at GOMAXPROCS 1 after GOMAXPROCS 2: fingerprint %s, want %s", got, refFP)
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
	if info.Results != 8 {
		t.Fatalf("recovered %d results, want the 8 from intact frames (%s)", info.Results, info)
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

// TestDurableGarbageFiles: state files this layout did not write are
// refused loudly instead of silently overwritten: a journal that was
// never one, and any file at the checkpoint path itself, where the older
// snapshot-plus-journal layout folded the journal on Close. Its results
// are in no frame; both readers refuse it, by name, and touch neither
// file.
func TestDurableGarbageFiles(t *testing.T) {
	space := engineSpace(t)
	path := durablePath(t)
	if err := os.WriteFile(path+".journal", []byte("NOTMAGIC plus trailing junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenDurable(path, space)
	var ckErr *CheckpointError
	if !errors.As(err, &ckErr) || ckErr.Kind != CheckpointGarbage {
		t.Fatalf("garbage journal: got %v, want CheckpointGarbage", err)
	}

	ck := NewCheckpoint()
	for i := 0; i < 3; i++ {
		ck.append(pureRunner().Run(space.New(map[string]int64{"x": int64(i), "y": int64(i)})))
	}
	var snapshot bytes.Buffer
	if err := ck.Encode(&snapshot); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name              string
		snapshot, journal []byte // nil: no such file
	}{
		{"snapshot alone", snapshot.Bytes(), nil},
		{"snapshot and emptied journal", snapshot.Bytes(), []byte(journalMagic)},
		{"non-checkpoint file", []byte("{\"not\":\"a checkpoint\"}\n"), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := durablePath(t)
			files := map[string][]byte{path: tc.snapshot}
			if tc.journal != nil {
				files[path+".journal"] = tc.journal
			}
			for file, data := range files {
				if err := os.WriteFile(file, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := OpenDurable(path, space); err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("OpenDurable: %v, want a refusal naming %s", err, path)
			}
			if _, _, err := ReadDurableResults(path, space); err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("ReadDurableResults: %v, want a refusal naming %s", err, path)
			}
			entries, err := os.ReadDir(filepath.Dir(path))
			if err != nil || len(entries) != len(files) {
				t.Fatalf("the refusals left %v (%v), want the %d files as they were", entries, err, len(files))
			}
			for file, data := range files {
				if got, err := os.ReadFile(file); err != nil || !bytes.Equal(got, data) {
					t.Errorf("%s changed: %q, %v", filepath.Base(file), got, err)
				}
			}
		})
	}
}

// TestReadDurableResultsMissingJournal: a shard with no journal never
// ran, or lost its state. Reading it used to return no results and no
// error, so the supervisor merged a completed shard as empty; the error
// now names the journal.
func TestReadDurableResultsMissingJournal(t *testing.T) {
	path := durablePath(t)
	results, _, err := ReadDurableResults(path, engineSpace(t))
	if err == nil || !strings.Contains(err.Error(), path+".journal") {
		t.Fatalf("missing journal: %d results, %v; want an error naming %s.journal", len(results), err, path)
	}
}

// TestDecodeCheckpointTypedErrors pins the typed-error contract: input
// that was never a checkpoint is garbage, and a damaged record after the
// header, at the end or mid-file, is corrupt.
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
		// A cut final record is damage like any other: journal frames
		// are CRC-checked whole, so no decoder recovers a prefix.
		torn := full[:strings.LastIndex(full, "\nr ")+10]
		_, err := DecodeCheckpoint(strings.NewReader(torn), space)
		if last := strings.Count(torn, "\n") + 1; !errors.As(err, &ckErr) || ckErr.Kind != CheckpointCorrupt || ckErr.Line != last {
			t.Fatalf("got %v, want CheckpointCorrupt at line %d", err, last)
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
