package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testManifest() Manifest {
	return Manifest{
		Target:    "pbft",
		Strategy:  "avd",
		Seed:      7,
		Workers:   4,
		Budget:    125,
		Shards:    3,
		Shard:     1,
		ShardAxis: "mac_mask",
		Space:     "mac_mask[0:4095:1] correct_clients[20:260:20]",
		Config:    "deadbeefdeadbeef",
	}
}

// TestManifestRoundtrip: Write then Load is the identity, and a missing
// file surfaces as os.ErrNotExist for the first-run path.
func TestManifestRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if _, err := LoadManifest(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: got %v, want ErrNotExist", err)
	}
	m := testManifest()
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("roundtrip changed the manifest: %+v vs %+v", got, m)
	}
	if err := got.Validate(m); err != nil {
		t.Fatal(err)
	}
}

// TestManifestValidateNamesEveryMismatch: a resume with drifted flags
// must fail with an error naming each drifted field — the satellite
// contract that mismatched seed, worker count or shard plan cannot
// silently diverge.
func TestManifestValidateNamesEveryMismatch(t *testing.T) {
	saved := testManifest()
	resume := saved
	resume.Seed = 8
	resume.Workers = 1
	resume.Shards = 4
	resume.ShardAxis = "correct_clients"
	err := resume.Validate(saved)
	if err == nil {
		t.Fatal("mismatched resume must be rejected")
	}
	for _, want := range []string{"seed", "workers", "shards", "shard axis", "refusing to resume"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error does not name %q: %v", want, err)
		}
	}
	if strings.Contains(err.Error(), "strategy") {
		t.Fatalf("error names fields that did match: %v", err)
	}
}

// TestManifestCorrupt: a manifest that fails to parse is an error, not
// a silent fresh start, and one a caller can tell from a read error: a
// resume refuses the first and may retry the second.
func TestManifestCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); !errors.Is(err, ErrManifestGarbage) || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt manifest: got %v, want ErrManifestGarbage", err)
	}
	if _, err := LoadManifest(dir); err == nil || errors.Is(err, ErrManifestGarbage) {
		t.Fatalf("reading a directory: got %v, want a read error", err)
	}
}

// TestFingerprintConfigSkipsZeroFields: a workload type that differs from
// another only by a field left at zero — the shape of a deleted knob —
// fingerprints the same, so deleting such a field keeps every saved
// manifest resumable. Changing any non-zero field, at any depth, moves
// the fingerprint.
func TestFingerprintConfigSkipsZeroFields(t *testing.T) {
	type protocol struct {
		N        int
		Timeout  time.Duration
		ExecCost time.Duration
	}
	type before struct {
		Protocol protocol
		Seed     int64
		Ratio    float64
		Binary   bool
		Name     string
		Budget   uint64
	}
	type protocolAfter struct {
		N       int
		Timeout time.Duration
	}
	type after struct {
		Protocol protocolAfter
		Seed     int64
		Ratio    float64
		Name     string
		Budget   uint64
	}
	old := before{Protocol: protocol{N: 4, Timeout: time.Second}, Seed: 1, Ratio: 0.5, Name: "pbft", Budget: 7}
	fp := FingerprintConfig(old)
	if got := FingerprintConfig(after{Protocol: protocolAfter{N: 4, Timeout: time.Second}, Seed: 1, Ratio: 0.5, Name: "pbft", Budget: 7}); got != fp {
		t.Errorf("dropping two zero fields moved the fingerprint: %s vs %s", got, fp)
	}
	for name, mutate := range map[string]func(*before){
		"nested int":      func(c *before) { c.Protocol.N = 7 },
		"nested duration": func(c *before) { c.Protocol.Timeout = 2 * time.Second },
		"zero to set":     func(c *before) { c.Protocol.ExecCost = time.Millisecond },
		"set to zero":     func(c *before) { c.Seed = 0 },
		"float":           func(c *before) { c.Ratio = 0.25 },
		"bool":            func(c *before) { c.Binary = true },
		"string":          func(c *before) { c.Name = "raft" },
		"uint":            func(c *before) { c.Budget = 8 },
	} {
		c := old
		mutate(&c)
		if FingerprintConfig(c) == fp {
			t.Errorf("%s: changing a field left the fingerprint at %s", name, fp)
		}
	}
}

// TestFingerprintConfigRefusesReferences: a pointer, map, slice or
// interface leaf has no canonical value, so it panics instead of hashing
// an address or an iteration order.
func TestFingerprintConfigRefusesReferences(t *testing.T) {
	for name, cfg := range map[string]any{
		"pointer":   struct{ P *int }{},
		"map":       struct{ M map[string]int }{},
		"slice":     struct{ S []int }{},
		"interface": struct{ I any }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s leaf: FingerprintConfig did not panic", name)
				}
			}()
			FingerprintConfig(cfg)
		}()
	}
}
