package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"avd/internal/scenario"
)

// TestShardPlanPartition: the K sub-spaces must partition the full
// space — every point in exactly one shard.
func TestShardPlanPartition(t *testing.T) {
	space := scenario.MustNewSpace(
		scenario.Dimension{Name: "a", Min: 0, Max: 6, Step: 2},  // 4 values
		scenario.Dimension{Name: "b", Min: 1, Max: 21, Step: 2}, // 11 values — split axis
		scenario.Dimension{Name: "c", Min: 0, Max: 1, Step: 1},  // 2 values
	)
	plan, err := PlanShards(space, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Axis != "b" {
		t.Fatalf("plan split %q, want the largest axis b", plan.Axis)
	}
	seen := make(map[scenario.CompactKey]int)
	total := 0
	for k := 0; k < plan.Shards; k++ {
		sub, err := plan.Subspace(space, k)
		if err != nil {
			t.Fatal(err)
		}
		sub.Enumerate(func(sc scenario.Scenario) bool {
			key := space.Rebind(sc).Compact()
			if prev, dup := seen[key]; dup {
				t.Fatalf("point %s in both shard %d and shard %d", sc.Key(), prev, k)
			}
			seen[key] = k
			total++
			return true
		})
	}
	if uint64(total) != space.Size() {
		t.Fatalf("shards cover %d points, full space has %d", total, space.Size())
	}
}

// TestShardPlanErrors: unsplittable spaces and out-of-plan shard
// indices fail loudly.
func TestShardPlanErrors(t *testing.T) {
	space := scenario.MustNewSpace(scenario.Dimension{Name: "x", Min: 0, Max: 2, Step: 1})
	if _, err := PlanShards(space, 4); err == nil {
		t.Fatal("planning 4 shards over a 3-value axis must fail")
	}
	plan, err := PlanShards(space, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Subspace(space, 3); err == nil {
		t.Fatal("shard index K must be rejected")
	}
	if _, err := plan.Subspace(space, -1); err == nil {
		t.Fatal("negative shard index must be rejected")
	}
	bogus := ShardPlan{Shards: 2, Axis: "nope"}
	if err := bogus.Validate(space); err == nil {
		t.Fatal("plan over an unknown axis must be rejected")
	}
}

// populationPlugins is a plugin set shaped like a shipped target's: a
// wide fault axis and a narrower structural one.
func populationPlugins() []Plugin {
	return []Plugin{
		gridPlugin("x", scenario.Dimension{Name: "x", Min: 0, Max: 1023, Step: 1}),
		gridPlugin("pop", scenario.Dimension{Name: "pop", Min: 10, Max: 250, Step: 10, Structural: true}),
	}
}

// TestPlanShardsAxisRule: the plan strides the widest structural axis
// that can feed K shards, and only when there is none the largest axis.
func TestPlanShardsAxisRule(t *testing.T) {
	dim := func(name string, count int64, structural bool) scenario.Dimension {
		return scenario.Dimension{Name: name, Min: 0, Max: count - 1, Step: 1, Structural: structural}
	}
	mask, correct, malicious := dim("mask", 4096, false), dim("correct", 25, true), dim("malicious", 2, true)
	for _, tc := range []struct {
		name string
		dims []scenario.Dimension
		k    int
		want string // "" = error
	}{
		{"structural beats a larger axis", []scenario.Dimension{mask, correct, malicious}, 2, "correct"},
		{"widest structural wins wherever it sits", []scenario.Dimension{malicious, mask, correct}, 2, "correct"},
		{"structural ties break to the first", []scenario.Dimension{mask, dim("b", 25, true), correct}, 4, "b"},
		{"a structural axis too narrow for K is passed over", []scenario.Dimension{malicious, correct, mask}, 3, "correct"},
		{"K wider than every structural axis falls back to the largest", []scenario.Dimension{mask, correct, malicious}, 32, "mask"},
		{"largest-axis ties break to the first", []scenario.Dimension{dim("p", 8, false), dim("q", 8, false)}, 2, "p"},
		{"K wider than every axis", []scenario.Dimension{mask, correct, malicious}, 4097, ""},
	} {
		plan, err := PlanShards(scenario.MustNewSpace(tc.dims...), tc.k)
		if tc.want == "" {
			if err == nil {
				t.Errorf("%s: planned %s, want an error", tc.name, plan)
			}
			continue
		}
		if err != nil || plan.Axis != tc.want || plan.Shards != tc.k {
			t.Errorf("%s: plan %s, err %v; want %d shards striding %q", tc.name, plan, err, tc.k, tc.want)
		}
	}
}

// TestShardKeepsStructuralMarker: a shard's view of the split axis is
// still structural, through Subspace and through WrapPlugins — a target
// built over the shard sees the same marker its plugin set.
func TestShardKeepsStructuralMarker(t *testing.T) {
	plugins := populationPlugins()
	full, err := Space(plugins...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanShards(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Axis != "pop" {
		t.Fatalf("plan %s, want the structural axis", plan)
	}
	sub, err := plan.Subspace(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := plan.WrapPlugins(plugins, 1)
	if err != nil {
		t.Fatal(err)
	}
	engineSpace, err := Space(wrapped...)
	if err != nil {
		t.Fatal(err)
	}
	for name, space := range map[string]*scenario.Space{"Subspace": sub, "WrapPlugins": engineSpace} {
		pop, _ := space.Dim("pop")
		if want := (scenario.Dimension{Name: "pop", Min: 20, Max: 250, Step: 20, Structural: true}); pop != want {
			t.Errorf("%s: split axis %+v, want %+v", name, pop, want)
		}
		if x, _ := space.Dim("x"); x.Structural {
			t.Errorf("%s: axis x became structural", name)
		}
	}
}

// TestShardWrapPluginsSpaceMatchesSubspace: the engine space built from
// wrapped plugins must be structurally identical to the plan's
// Subspace, so CompactKeys agree between the explorer and the merge, and
// wrapping leaves the input plugins' axes as they were: a copy sharing
// its Dims with them would stride the unsharded plugin too.
func TestShardWrapPluginsSpaceMatchesSubspace(t *testing.T) {
	plugins := twoDimPlugins()
	full, err := Space(plugins...)
	if err != nil {
		t.Fatal(err)
	}
	var dims [][]scenario.Dimension
	for _, p := range plugins {
		dims = append(dims, slices.Clone(p.Dims))
	}
	plan, err := PlanShards(full, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < plan.Shards; k++ {
		wrapped, err := plan.WrapPlugins(plugins, k)
		if err != nil {
			t.Fatal(err)
		}
		engineSpace, err := Space(wrapped...)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := plan.Subspace(full, k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := SpaceSignature(engineSpace), SpaceSignature(sub); got != want {
			t.Fatalf("shard %d: engine space %s != subspace %s", k, got, want)
		}
		for i, p := range plugins {
			if !slices.Equal(p.Dims, dims[i]) {
				t.Fatalf("shard %d: wrapping changed plugin %s's axes to %+v, want %+v", k, p.Name, p.Dims, dims[i])
			}
		}
	}
	if _, err := plan.WrapPlugins(nil, 0); err == nil {
		t.Fatal("wrapping a plugin set that lacks the split axis must fail")
	}
}

// TestShardMutationStaysInShard: mutations through wrapped plugins can
// never leave the shard's residue class — the property that makes the
// merge's membership check sound. That the shipped client plugins also
// step on the shard's grid (core cannot import them) is
// campaign.TestShardMutationStepsOnShardGrid.
func TestShardMutationStaysInShard(t *testing.T) {
	plugins := twoDimPlugins()
	full, err := Space(plugins...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanShards(full, 3)
	if err != nil {
		t.Fatal(err)
	}
	axis, _ := full.Dim(plan.Axis)
	for k := 0; k < plan.Shards; k++ {
		wrapped, err := plan.WrapPlugins(plugins, k)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewController(ControllerConfig{Seed: int64(k + 1), SeedTests: 5}, wrapped...)
		if err != nil {
			t.Fatal(err)
		}
		run := pureRunner()
		min, stride := axis.Min+int64(k)*axis.Step, axis.Step*int64(plan.Shards)
		for i := 0; i < 200; i++ {
			sc, _, ok := ctrl.Next()
			if !ok {
				break
			}
			v, _ := sc.Get(plan.Axis)
			if v < min || (v-min)%stride != 0 {
				t.Fatalf("shard %d proposed %s=%d outside its residue class (min %d stride %d)",
					k, plan.Axis, v, min, stride)
			}
			ctrl.Record(run.Run(sc))
		}
	}
}

// shardCampaigns runs a small campaign in every shard of a k-way plan
// over the plugin set.
func shardCampaigns(t *testing.T, plugins []Plugin, k int) (full *scenario.Space, plan ShardPlan, perShard [][]Result, total int) {
	t.Helper()
	full, err := Space(plugins...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = PlanShards(full, k)
	if err != nil {
		t.Fatal(err)
	}
	run := pureRunner()
	perShard = make([][]Result, plan.Shards)
	for k := 0; k < plan.Shards; k++ {
		wrapped, err := plan.WrapPlugins(plugins, k)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewController(ControllerConfig{Seed: 9}, wrapped...)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(fakeTarget{Runner: run, plugins: wrapped}, WithExplorer(ctrl), WithBudget(20))
		if err != nil {
			t.Fatal(err)
		}
		results, err := eng.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		perShard[k] = results
		total += len(results)
	}
	return full, plan, perShard, total
}

// TestMergeShards: merging shard campaigns combines results with
// exactly-once accounting and rejects double-counting and strays.
func TestMergeShards(t *testing.T) {
	full, plan, perShard, total := shardCampaigns(t, twoDimPlugins(), 3)
	merged, err := MergeShards(full, plan, perShard)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != total {
		t.Fatalf("merged %d results from %d", len(merged), total)
	}
	for _, r := range merged {
		if SpaceSignature(r.Scenario.Space()) != SpaceSignature(full) {
			t.Fatalf("merged result not rebound to the full space: %s", r.Scenario.Key())
		}
	}
	fp1, err := FingerprintResults(merged)
	if err != nil {
		t.Fatal(err)
	}
	merged2, err := MergeShards(full, plan, perShard)
	if err != nil {
		t.Fatal(err)
	}
	fp2, _ := FingerprintResults(merged2)
	if fp1 != fp2 {
		t.Fatalf("merge fingerprint not deterministic: %s vs %s", fp1, fp2)
	}

	t.Run("double count", func(t *testing.T) {
		// Shard 1 claims a scenario shard 0 already executed. Rebuild it
		// in shard 1's space at the same absolute point — Rebind clamps
		// onto shard 1's residue class, so instead inject a raw copy.
		dup := perShard[0][0]
		bad := append([][]Result{}, perShard...)
		bad[1] = append([]Result{dup}, bad[1]...)
		_, err := MergeShards(full, plan, bad)
		if err == nil {
			t.Fatal("double-counted scenario must fail the merge")
		}
		if !strings.Contains(err.Error(), "residue") && !strings.Contains(err.Error(), "double-counted") {
			t.Fatalf("unhelpful merge error: %v", err)
		}
	})
	t.Run("shard count mismatch", func(t *testing.T) {
		if _, err := MergeShards(full, plan, perShard[:2]); err == nil {
			t.Fatal("merging 2 shard streams under a 3-shard plan must fail")
		}
	})
	t.Run("structural axis", func(t *testing.T) {
		full, plan, perShard, total := shardCampaigns(t, populationPlugins(), 2)
		if plan.Axis != "pop" {
			t.Fatalf("plan %s, want the structural axis", plan)
		}
		merged, err := MergeShards(full, plan, perShard)
		if err != nil || len(merged) != total {
			t.Fatalf("merged %d results of %d: %v", len(merged), total, err)
		}
		// A population belongs to one shard: swapping the streams puts
		// every result in the wrong residue class.
		if _, err := MergeShards(full, plan, [][]Result{perShard[1], perShard[0]}); err == nil || !strings.Contains(err.Error(), "residue") {
			t.Fatalf("swapped shard streams merged: %v", err)
		}
	})
}

// TestRebindSamePoint: rebinding a sub-space scenario onto the parent
// space preserves the point exactly.
func TestRebindSamePoint(t *testing.T) {
	full := scenario.MustNewSpace(
		scenario.Dimension{Name: "x", Min: 0, Max: 9, Step: 1},
		scenario.Dimension{Name: "y", Min: 0, Max: 4, Step: 1},
	)
	plan := ShardPlan{Shards: 2, Axis: "x"}
	sub, err := plan.Subspace(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	sub.Enumerate(func(sc scenario.Scenario) bool {
		re := full.Rebind(sc)
		if re.Key() != sc.Key() {
			t.Fatalf("rebind moved the point: %s -> %s", sc.Key(), re.Key())
		}
		return true
	})
}
