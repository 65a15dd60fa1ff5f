package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"avd/internal/scenario"
)

// ShardPlan deterministically splits one campaign's hyperspace into K
// disjoint sub-spaces, one per worker process (DESIGN.md §13). The split
// is axis-strided: shard k of K keeps every K-th value of the split axis
// starting at offset k, so each shard's sub-space is a genuine
// scenario.Space — its explorers stay honest (random draws are uniform
// over the shard, exhaustive walks enumerate exactly the shard) and a
// scenario can never leave its shard, because every mutation clamps
// through the shard's own axes. Values are absolute, so a shard result
// rebinds onto the full space at the same point; the union of all shards
// is exactly the full space and the intersection of any two is empty,
// which is what makes MergeShards' zero-double-counting check sound.
type ShardPlan struct {
	// Shards is K, the number of sub-spaces.
	Shards int
	// Axis names the dimension being strided.
	Axis string
}

// PlanShards picks the split axis for a K-way shard of the space: the
// widest structural dimension (scenario.Dimension.Structural) with at
// least K values, so the shards partition the populations — and with
// them the masters and baselines a target builds — instead of each
// building all of them. When no structural axis can feed K shards it
// falls back to the dimension with the most values, which keeps the
// split as even as possible. Ties break to the first dimension. It
// fails when no axis can give K shards at least one value each.
func PlanShards(space *scenario.Space, k int) (ShardPlan, error) {
	if k < 1 {
		return ShardPlan{}, fmt.Errorf("core: shard plan needs >= 1 shards, got %d", k)
	}
	dims := space.Dimensions()
	widest, structural := 0, -1
	for i, d := range dims {
		if d.Count() > dims[widest].Count() {
			widest = i
		}
		if d.Structural && d.Count() >= int64(k) && (structural < 0 || d.Count() > dims[structural].Count()) {
			structural = i
		}
	}
	if structural >= 0 {
		return ShardPlan{Shards: k, Axis: dims[structural].Name}, nil
	}
	if dims[widest].Count() < int64(k) {
		return ShardPlan{}, fmt.Errorf("core: cannot split %d ways: largest axis %q has only %d values",
			k, dims[widest].Name, dims[widest].Count())
	}
	return ShardPlan{Shards: k, Axis: dims[widest].Name}, nil
}

// Validate checks the plan against the full space it claims to split.
func (p ShardPlan) Validate(space *scenario.Space) error {
	if p.Shards < 1 {
		return fmt.Errorf("core: shard plan has %d shards", p.Shards)
	}
	d, ok := space.Dim(p.Axis)
	if !ok {
		return fmt.Errorf("core: shard plan splits unknown axis %q", p.Axis)
	}
	if d.Count() < int64(p.Shards) {
		return fmt.Errorf("core: shard plan splits axis %q (%d values) into %d shards", p.Axis, d.Count(), p.Shards)
	}
	return nil
}

// String formats the plan for logs and manifests.
func (p ShardPlan) String() string {
	return fmt.Sprintf("%d shards striding axis %q", p.Shards, p.Axis)
}

// Subspace builds shard k's sub-space: the full space with the split
// axis restricted to values Min + k*Step, Min + (k+K)*Step, ... — the
// k-th residue class of the axis grid modulo K.
func (p ShardPlan) Subspace(space *scenario.Space, k int) (*scenario.Space, error) {
	if err := p.Validate(space); err != nil {
		return nil, err
	}
	if k < 0 || k >= p.Shards {
		return nil, fmt.Errorf("core: shard %d outside plan of %d", k, p.Shards)
	}
	dims := space.Dimensions()
	for i, d := range dims {
		if d.Name == p.Axis {
			dims[i] = p.strided(d, k)
		}
	}
	return scenario.NewSpace(dims...)
}

// strided is the split axis as shard k sees it.
func (p ShardPlan) strided(d scenario.Dimension, k int) scenario.Dimension {
	d.Min += int64(k) * d.Step
	d.Step *= int64(p.Shards)
	return d
}

// shardPlugin narrows one plugin's view of the split axis. Only
// Dimensions changes: Mutate still runs the wrapped plugin's own logic,
// and because every mutation derives children via Scenario.With — which
// clamps through the *shard* space the engine built from these
// dimensions — offspring can never escape the shard.
type shardPlugin struct {
	Plugin
	dims []scenario.Dimension
}

func (sp shardPlugin) Dimensions() []scenario.Dimension { return sp.dims }

// WrapPlugins returns the plugin set as shard k must see it: plugins
// owning the split axis report the strided dimension, everything else
// passes through untouched.
func (p ShardPlan) WrapPlugins(plugins []Plugin, k int) ([]Plugin, error) {
	if k < 0 || k >= p.Shards {
		return nil, fmt.Errorf("core: shard %d outside plan of %d", k, p.Shards)
	}
	found := false
	out := make([]Plugin, len(plugins))
	for i, pl := range plugins {
		dims := pl.Dimensions()
		owns := false
		for j, d := range dims {
			if d.Name == p.Axis {
				dims[j] = p.strided(d, k)
				owns = true
			}
		}
		if owns {
			out[i] = shardPlugin{Plugin: pl, dims: dims}
			found = true
		} else {
			out[i] = pl
		}
	}
	if !found {
		return nil, fmt.Errorf("core: no plugin owns shard axis %q", p.Axis)
	}
	return out, nil
}

var _ Plugin = shardPlugin{}

// Plugin interface conformance: Mutate and Name delegate via embedding.
func (sp shardPlugin) Mutate(parent scenario.Scenario, distance float64, rng *rand.Rand) scenario.Scenario {
	return sp.Plugin.Mutate(parent, distance, rng)
}

// MergeShards combines per-shard result streams into one campaign,
// verifying exactly-once accounting as it goes. Each result's scenario
// is rebound onto the full space (values are absolute, so the point is
// unchanged); a result outside its shard's residue class, or a scenario
// appearing in more than one shard, fails the merge — either means a
// worker ran the wrong plan and the summary would double- or
// mis-count. Order is deterministic: shard 0's results in execution
// order, then shard 1's, and so on.
//
// Note the dedup is across shards only: one shard legitimately revisits
// points (random exploration draws with replacement), exactly as a
// single-process campaign does.
func MergeShards(full *scenario.Space, p ShardPlan, shards [][]Result) ([]Result, error) {
	if err := p.Validate(full); err != nil {
		return nil, err
	}
	if len(shards) != p.Shards {
		return nil, fmt.Errorf("core: merge got %d shards, plan has %d", len(shards), p.Shards)
	}
	axis, _ := full.Dim(p.Axis)
	owner := make(map[scenario.CompactKey]int)
	var merged []Result
	for k, results := range shards {
		sub := p.strided(axis, k)
		for i, r := range results {
			v, ok := r.Scenario.Get(p.Axis)
			if !ok {
				return nil, fmt.Errorf("core: shard %d result %d lacks split axis %q", k, i, p.Axis)
			}
			if v < sub.Min || v > axis.Max || (v-sub.Min)%sub.Step != 0 {
				return nil, fmt.Errorf("core: shard %d result %d has %s=%d, outside its residue class (min %d stride %d)",
					k, i, p.Axis, v, sub.Min, sub.Step)
			}
			r.Scenario = full.Rebind(r.Scenario)
			key := r.Scenario.Compact()
			if prev, dup := owner[key]; dup && prev != k {
				return nil, fmt.Errorf("core: scenario %s executed by both shard %d and shard %d — double-counted",
					r.Scenario.Key(), prev, k)
			}
			owner[key] = k
			merged = append(merged, r)
		}
	}
	return merged, nil
}

// FingerprintResults is the canonical identity of a result stream: the
// FNV-64a hash of its checkpoint encoding. Two campaigns with the same
// fingerprint ran the same scenarios to the same outcomes in the same
// order — the kill-storm test's definition of "bit-identical".
func FingerprintResults(results []Result) (string, error) {
	h := fnv.New64a()
	if err := (&Checkpoint{results: results}).Encode(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
