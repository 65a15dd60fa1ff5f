package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"avd/internal/scenario"
)

// Manifest pins the configuration a durable campaign was started with.
// Resuming is only sound when every determinism-relevant knob matches —
// the explorer replays its proposal sequence from (seed, workers, space),
// so a drifted flag silently explores a different campaign until the
// replay check trips deep into the run. The manifest turns that late,
// cryptic divergence into an immediate, named error: each shard's state
// directory carries a manifest, and a resume validates its flags against
// it before touching the checkpoint.
type Manifest struct {
	// Target and Strategy name the system under test and the explorer.
	Target   string `json:"target"`
	Strategy string `json:"strategy"`
	// Seed, Workers and Budget are the engine's determinism triple.
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`
	Budget  int   `json:"budget"`
	// Shards/Shard/ShardAxis place this campaign in its shard plan
	// (1/0/"" for an unsharded run).
	Shards    int    `json:"shards,omitempty"`
	Shard     int    `json:"shard,omitempty"`
	ShardAxis string `json:"shard_axis,omitempty"`
	// Plugins and Faults record the flag spellings that shaped the
	// hyperspace.
	Plugins string `json:"plugins,omitempty"`
	Faults  string `json:"faults,omitempty"`
	// Space is the composed hyperspace's signature (SpaceSignature): the
	// load-bearing check, since every axis change reshapes CompactKeys.
	Space string `json:"space"`
	// Config is the target workload's fingerprint, when the target
	// exposes one (ConfigFingerprinter).
	Config string `json:"config,omitempty"`
}

// SpaceSignature canonically describes a hyperspace: every dimension as
// name[min:max:step] in layout order. Two spaces with equal signatures
// assign identical CompactKeys to identical points.
func SpaceSignature(space *scenario.Space) string {
	dims := space.Dimensions()
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprintf("%s[%d:%d:%d]", d.Name, d.Min, d.Max, d.Step)
	}
	return strings.Join(parts, " ")
}

// ConfigFingerprinter is implemented by targets that can fingerprint
// their workload configuration; the manifest records it so a resume with
// a drifted workload fails fast instead of replaying garbage.
type ConfigFingerprinter interface {
	ConfigFingerprint() string
}

// configEncoding names the format FingerprintConfig hashes; a change to
// the format changes the name, and so every fingerprint, once.
const configEncoding = "config/v1"

// FingerprintConfig is the canonical identity of a workload: the FNV-64a
// hash of every non-zero scalar leaf of cfg, written as path=value in
// declaration order (e.g. PBFT.BatchSize=64). A zero field writes
// nothing, so adding or deleting a field that every campaign leaves at
// zero leaves every fingerprint — and every saved manifest — valid.
// Paths are field names only, never type names. A pointer, map, slice,
// interface, array, channel or function leaf panics: the workload must be
// a tree of plain scalar structs, whose values are the whole of its
// meaning.
func FingerprintConfig(cfg any) string {
	h := fnv.New64a()
	fmt.Fprintln(h, configEncoding)
	encodeConfig(h, "", reflect.ValueOf(cfg))
	return fmt.Sprintf("%016x", h.Sum64())
}

func encodeConfig(w io.Writer, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			encodeConfig(w, name, v.Field(i))
		}
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.String:
		// %#v writes the raw value (a Duration in nanoseconds, a string
		// quoted), not what a String method makes of it.
		if !v.IsZero() {
			fmt.Fprintf(w, "%s=%#v\n", path, v)
		}
	default:
		panic(fmt.Sprintf("core: FingerprintConfig: %s is a %s, not a scalar", path, v.Kind()))
	}
}

// Validate compares a resume's manifest (m) against the one on disk
// (saved), naming every mismatched field. A nil error means the resumed
// campaign replays the identical proposal sequence.
func (m Manifest) Validate(saved Manifest) error {
	var bad []string
	check := func(field string, got, want any) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: resuming with %v, campaign was started with %v", field, got, want))
		}
	}
	check("target", m.Target, saved.Target)
	check("strategy", m.Strategy, saved.Strategy)
	check("seed", m.Seed, saved.Seed)
	check("workers", m.Workers, saved.Workers)
	check("budget", m.Budget, saved.Budget)
	check("shards", m.Shards, saved.Shards)
	check("shard", m.Shard, saved.Shard)
	check("shard axis", m.ShardAxis, saved.ShardAxis)
	check("plugins", m.Plugins, saved.Plugins)
	check("faults", m.Faults, saved.Faults)
	check("space", m.Space, saved.Space)
	check("config", m.Config, saved.Config)
	if len(bad) > 0 {
		return fmt.Errorf("core: campaign manifest mismatch — refusing to resume:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// WriteManifest atomically persists the manifest next to a campaign's
// durable state (write temp, fsync, rename).
func WriteManifest(path string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("core: manifest encode: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: manifest write: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: manifest write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: manifest write: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: manifest write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: manifest write: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// LoadManifest reads a manifest written by WriteManifest. A missing file
// returns os.ErrNotExist (unwrapped-checkable), letting callers treat
// "first run" and "resume" uniformly.
func LoadManifest(path string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("core: manifest %s: %w", path, err)
	}
	return m, nil
}
