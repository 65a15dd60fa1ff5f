package core

import (
	"math/rand"

	"avd/internal/scenario"
)

// CorpusEntry is one interesting scenario retained for mutation.
type CorpusEntry struct {
	// Result is the measured run that earned the entry its place.
	Result Result
	// Energy is the entry's base scheduling weight: violations dominate,
	// impact and behavioral richness add smaller boosts.
	Energy float64
	// Picks counts how often the entry has been drawn as a mutation
	// parent; scheduling decays weight with picks so the corpus keeps
	// rotating instead of hammering one seed.
	Picks int
}

// weight is the effective sampling weight at draw time. Energy enters
// squared: an archive admits every behaviorally novel run, so without
// sharp selection pressure the interesting tail is diluted by dozens of
// merely-novel entries; squaring makes a violation-adjacent parent an
// order of magnitude likelier than a baseline one while the pick decay
// still guarantees rotation.
func (e *CorpusEntry) weight() float64 {
	return e.Energy * e.Energy / (1 + float64(float64(e.Picks)/8))
}

// Corpus is the Controller's novelty archive (DESIGN.md §14): a run
// joins it when its behavior digest was never observed before in
// the campaign, deduplicated by scenario identity via CompactKey.
// Admission is the novelty test of greybox fuzzing — "keep an input iff
// it reached new coverage" — transplanted to distributed-system
// schedules: the coverage signal is the abstract event timeline, not
// branch counters.
//
// All iteration is over insertion-ordered slices; the maps are
// membership-only. That keeps every Corpus operation deterministic for
// a fixed call sequence, which the engine's (seed, workers) reproducibility
// contract depends on.
type Corpus struct {
	entries    []CorpusEntry
	byScenario map[scenario.CompactKey]bool
	behaviors  map[uint64]bool // Behaviors digests observed campaign-wide
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{
		byScenario: make(map[scenario.CompactKey]bool),
		behaviors:  make(map[uint64]bool),
	}
}

// Len returns the number of retained entries.
func (c *Corpus) Len() int { return len(c.entries) }

// Behaviors returns how many distinct behavior digests the campaign has
// observed (admitted or not).
func (c *Corpus) Behaviors() int { return len(c.behaviors) }

// Add folds one executed result into the campaign's coverage memory and
// reports whether the scenario was admitted: its behavior digest must be
// novel and its scenario not already retained. Results without a digest
// (runs that panicked before measuring, pre-coverage checkpoint replays)
// carry no signal and are never admitted.
func (c *Corpus) Add(res Result) bool {
	cov := res.Coverage
	if cov.IsZero() {
		return false
	}
	novel := !c.behaviors[cov.Behaviors]
	c.behaviors[cov.Behaviors] = true
	if !novel {
		return false
	}
	key := res.Scenario.Compact()
	if c.byScenario[key] {
		return false
	}
	c.byScenario[key] = true
	c.entries = append(c.entries, CorpusEntry{Result: res, Energy: corpusEnergy(res)})
	return true
}

// corpusEnergy scores how much scheduling attention a new entry
// deserves. Every entry starts at 1 so novelty alone keeps it reachable;
// provable violations dominate (they are the findings the campaign is
// for), raw impact and behavioral richness add smaller boosts, and a
// hung run — an event storm — still counts as interesting behavior.
//
// View churn gets its own term: in leader-based consensus nearly every
// schedule-dependent safety defect hides behind leadership transitions
// (a commit racing a view change, an election during a crash window),
// so runs that drove views forward are the ones whose neighborhoods are
// worth mutating. This is the schedule-level analogue of a greybox
// fuzzer boosting inputs that reached rare edges.
func corpusEnergy(res Result) float64 {
	e := 1 + float64(2*res.Impact) + float64(float64(res.Coverage.BehaviorCount)/32)
	if vc := float64(res.ViewChanges); vc > 0 {
		if vc > 24 {
			vc = 24
		}
		e += vc / 3
	}
	if len(res.Violations) > 0 {
		e += 4
	}
	if res.Hung {
		e++
	}
	return e
}

// Pick draws a mutation parent weighted by current energy (decayed by
// prior picks) and charges the draw to the entry. It returns nil when
// the corpus is empty. The returned pointer stays valid until the next
// Add.
func (c *Corpus) Pick(rng *rand.Rand) *CorpusEntry {
	if len(c.entries) == 0 {
		return nil
	}
	total := 0.0
	for i := range c.entries {
		total += c.entries[i].weight()
	}
	x := float64(rng.Float64() * total)
	pick := &c.entries[len(c.entries)-1]
	for i := range c.entries {
		x -= c.entries[i].weight()
		if x <= 0 {
			pick = &c.entries[i]
			break
		}
	}
	pick.Picks++
	return pick
}
