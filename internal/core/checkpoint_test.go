package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"avd/internal/oracle"
)

// TestCheckpointCodecRoundtrip: Encode/Decode preserves every result
// bit-for-bit — scenarios, hex-exact floats, generators, violations.
func TestCheckpointCodecRoundtrip(t *testing.T) {
	space, err := Space(twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpoint()
	ck.append(Result{
		Scenario:           space.New(map[string]int64{"x": 17, "y": 63}),
		Impact:             0.123456789123,
		Throughput:         math.Pi * 1000,
		BaselineThroughput: 7501.5,
		AvgLatency:         1234567 * time.Nanosecond,
		CrashedReplicas:    2,
		ViewChanges:        9,
		Generator:          `mutate:odd "quoted" generator`,
		Violations: []oracle.Violation{
			{Invariant: "pbft/agreement", Detail: `nodes 0 and 1 committed "different" values`, Count: 3},
			{Invariant: "pbft/durability", Detail: "node 2 overwrote seq 5", Count: 1},
		},
	})
	ck.append(Result{
		Scenario:   space.New(map[string]int64{"x": 0, "y": 0}),
		Impact:     1,
		Throughput: 0,
		Generator:  "seed",
	})

	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()), space)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ck.Results(), decoded.Results()
	if len(a) != len(b) {
		t.Fatalf("decoded %d results, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Scenario.Compact() != b[i].Scenario.Compact() {
			t.Fatalf("result %d scenario %s != %s", i, a[i].Scenario, b[i].Scenario)
		}
		if a[i].Impact != b[i].Impact || a[i].Throughput != b[i].Throughput ||
			a[i].BaselineThroughput != b[i].BaselineThroughput ||
			a[i].AvgLatency != b[i].AvgLatency || a[i].CrashedReplicas != b[i].CrashedReplicas ||
			a[i].ViewChanges != b[i].ViewChanges || a[i].Generator != b[i].Generator {
			t.Fatalf("result %d roundtrip mismatch:\n%+v\n%+v", i, a[i], b[i])
		}
		if len(a[i].Violations) != len(b[i].Violations) {
			t.Fatalf("result %d violations %d != %d", i, len(b[i].Violations), len(a[i].Violations))
		}
		for j := range a[i].Violations {
			if a[i].Violations[j] != b[i].Violations[j] {
				t.Fatalf("result %d violation %d: %+v != %+v", i, j, b[i].Violations[j], a[i].Violations[j])
			}
		}
	}
}

// TestCheckpointCoverageRoundtrip: results carrying a coverage digest
// write the optional "c" record and roundtrip it exactly; digest-free
// results write no "c" record at all.
func TestCheckpointCoverageRoundtrip(t *testing.T) {
	space, err := Space(twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpoint()
	ck.append(Result{
		Scenario:  space.New(map[string]int64{"x": 3, "y": 4}),
		Impact:    0.5,
		Generator: "seed",
		Coverage:  oracle.Coverage{Timeline: 0xfeedface, Behaviors: 0xbead, BehaviorCount: 17},
		Violations: []oracle.Violation{
			{Invariant: "raft/election-safety", Detail: "two leaders", Count: 1},
		},
	})
	ck.append(Result{Scenario: space.New(map[string]int64{"x": 0, "y": 0}), Generator: "seed"})

	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\nc "); n != 1 {
		t.Fatalf("encoded %d coverage records, want 1:\n%s", n, buf.String())
	}
	decoded, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()), space)
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.Results()
	if got[0].Coverage != ck.Results()[0].Coverage {
		t.Fatalf("coverage roundtrip: %+v != %+v", got[0].Coverage, ck.Results()[0].Coverage)
	}
	if !got[1].Coverage.IsZero() {
		t.Fatalf("digest-free result gained coverage: %+v", got[1].Coverage)
	}
}

// TestCheckpointPreCoverageCompat: a checkpoint written before the
// coverage record existed — literal bytes, r/e/v lines only — decodes
// with zero Coverage and re-encodes byte-identical. Old campaign state
// survives the format extension untouched.
func TestCheckpointPreCoverageCompat(t *testing.T) {
	space, err := Space(twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	old := "avd-checkpoint v1\n" +
		"r 0 17 0x1p-03 0x1.f4p+09 0x1.f4p+09 1234 0 2 \"seed\"\n" +
		"r 0 5 0x1p+00 0x0p+00 0x1.d4cp+12 500000000 1 9 \"mutate:x\"\n" +
		"e 40 39 0 \"\"\n" +
		"v 3 \"pbft/agreement\" \"nodes 0 and 1 committed different values at seq 7\"\n"
	ck, err := DecodeCheckpoint(strings.NewReader(old), space)
	if err != nil {
		t.Fatalf("pre-coverage checkpoint rejected: %v", err)
	}
	for i, r := range ck.Results() {
		if !r.Coverage.IsZero() {
			t.Fatalf("result %d invented a coverage digest: %+v", i, r.Coverage)
		}
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != old {
		t.Fatalf("pre-coverage checkpoint not byte-identical after re-encode:\n%q\nvs\n%q", buf.String(), old)
	}
}

// TestCheckpointDecodeErrors: malformed inputs error with context, never
// panic.
func TestCheckpointDecodeErrors(t *testing.T) {
	space, err := Space(twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"",
		"not a checkpoint",
		"avd-checkpoint v1\nx stray record",
		"avd-checkpoint v1\nr 0",
		"avd-checkpoint v1\nr 0 0 nope 0x0p+00 0x0p+00 0 0 0 \"g\"",
		"avd-checkpoint v1\nv 1 \"inv\" \"before any result\"",
		"avd-checkpoint v1\nr 0 0 0x0p+00 0x0p+00 0x0p+00 0 0 0 \"unterminated",
		"avd-checkpoint v1\nr 0 0 0x0p+00 0x0p+00 0x0p+00 0 0 0 \"g\" trailing",
		"avd-checkpoint v1\nc 1 2 3",
		"avd-checkpoint v1\nr 0 0 0x0p+00 0x0p+00 0x0p+00 0 0 0 \"g\"\nc 1 2",
		"avd-checkpoint v1\nr 0 0 0x0p+00 0x0p+00 0x0p+00 0 0 0 \"g\"\nc 1 2 nope",
		"avd-checkpoint v1\nr 0 0 0x0p+00 0x0p+00 0x0p+00 0 0 0 \"g\"\nc 1 2 3 4",
	}
	for _, in := range cases {
		if _, err := DecodeCheckpoint(strings.NewReader(in), space); err == nil {
			t.Fatalf("decoding %q did not error", in)
		}
	}
}

// TestCheckpointEncodeReplayResume: the full durability path — run a
// campaign partway, encode the checkpoint, decode it in a "fresh
// process", and resume: the stitched campaign must equal an
// uninterrupted one bit-for-bit, the novelty archive included.
func TestCheckpointEncodeReplayResume(t *testing.T) {
	const budget = 80
	space, err := Space(twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}

	uninterrupted, err := func() ([]Result, error) {
		eng, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 33)), WithBudget(budget))
		if err != nil {
			return nil, err
		}
		return eng.RunAll(context.Background())
	}()
	if err != nil {
		t.Fatal(err)
	}
	if archiveTurns(uninterrupted[15:]) == 0 {
		t.Fatal("the novelty archive proposed nothing after the resume point")
	}

	// First "process": run 15 tests, then encode.
	ck := NewCheckpoint()
	ctx, cancel := context.WithCancel(context.Background())
	eng1, err := NewEngine(newFakeTarget(),
		WithExplorer(newEngineController(t, 33)), WithBudget(budget), WithCheckpoint(ck),
		WithObserver(func(i int, _ Result) {
			if i == 15 {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng1.RunAll(ctx); err != context.Canceled {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	cancel()
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}

	// Second "process": decode and resume.
	restored, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()), space)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != ck.Len() {
		t.Fatalf("restored %d results, checkpoint had %d", restored.Len(), ck.Len())
	}
	eng2, err := NewEngine(newFakeTarget(),
		WithExplorer(newEngineController(t, 33)), WithBudget(budget), WithCheckpoint(restored))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	full := restored.Results()
	if len(full) != len(uninterrupted) {
		t.Fatalf("resumed campaign has %d results, uninterrupted %d", len(full), len(uninterrupted))
	}
	a, b := campaignFingerprint(uninterrupted), campaignFingerprint(full)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("encode/decode resume diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
	for i := range full {
		if full[i].Impact != uninterrupted[i].Impact {
			t.Fatalf("impact diverged at %d after codec resume", i)
		}
	}
}
