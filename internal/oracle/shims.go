package oracle

import "avd/internal/slab"

// The four constructors below exist only for the benchmark module
// (benchmark/probes.go), which builds its oracle as
// NewSet(NewAgreement(p), NewElectionSafety(p), NewCoverage()) and cannot
// change before ROADMAP item 2's owed edits. Between them they yield one
// Model, so the benchmark's oracle.observe_ns probe measures what a
// deployment pays per event. Nothing else may call them.

// NewAgreement returns a Model on a private pool. Benchmark-only.
func NewAgreement(prefix string) *Model { return New(new(slab.Pool), prefix) }

// NewElectionSafety returns nil: the Model checks election safety. Benchmark-only.
func NewElectionSafety(string) *Model { return nil }

// NewCoverage returns nil: the Model folds coverage. Benchmark-only.
func NewCoverage() *Model { return nil }

// NewSet returns m, the Model NewAgreement built. Benchmark-only.
func NewSet(m *Model, _ ...*Model) *Model { return m }
