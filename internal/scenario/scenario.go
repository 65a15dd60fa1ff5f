// Package scenario models AVD's hyperspace of test parameters (§3 of the
// paper): each dimension is the set of values one test-tool parameter can
// take, a scenario is one point of the composed hyperspace, and running a
// test maps a scenario to an impact measurement.
package scenario

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
)

// Dimension is one axis of the hyperspace: an inclusive integer range
// [Min, Max] sampled at multiples of Step from Min.
type Dimension struct {
	Name string
	Min  int64
	Max  int64
	Step int64
	// Structural marks an axis whose value shapes the deployment a target
	// builds and warms before any test runs (a client population): two
	// scenarios that differ on it never share a master or a baseline. The
	// owning plugin sets it; it is a promise about the target's set-up
	// key, not part of the axis grid, so it is in no key or signature.
	// core.PlanShards prefers such an axis (DESIGN.md §14).
	Structural bool
}

// Validate reports structural problems with the dimension.
func (d Dimension) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("scenario: dimension with empty name")
	}
	if d.Step < 1 {
		return fmt.Errorf("scenario: dimension %q step %d must be >= 1", d.Name, d.Step)
	}
	if d.Max < d.Min {
		return fmt.Errorf("scenario: dimension %q has max %d < min %d", d.Name, d.Max, d.Min)
	}
	return nil
}

// Count returns the number of values on the axis.
func (d Dimension) Count() int64 { return (d.Max-d.Min)/d.Step + 1 }

// Clamp snaps v onto the axis: into [Min, Max] and onto the step grid.
func (d Dimension) Clamp(v int64) int64 {
	if v < d.Min {
		return d.Min
	}
	if v > d.Max {
		v = d.Max
	}
	return d.Min + (v-d.Min)/d.Step*d.Step
}

// Value returns the i-th value on the axis (i in [0, Count)).
func (d Dimension) Value(i int64) int64 { return d.Min + i*d.Step }

// Index returns the axis index of value v (after clamping).
func (d Dimension) Index(v int64) int64 { return (d.Clamp(v) - d.Min) / d.Step }

// Random returns a uniformly random value on the axis.
func (d Dimension) Random(rng *rand.Rand) int64 {
	return d.Value(rng.Int63n(d.Count()))
}

// CompactKey is the packed identity of one scenario within its space:
// every dimension's axis index, bit-packed in dimension order into 128
// bits. It is comparable and allocation-free, which makes it the map key
// of choice for the hot Ω/Ψ dedup path (Algorithm 1, line 5) in place of
// the formatted Key() string. A CompactKey is only meaningful relative
// to the space that produced it.
type CompactKey struct{ hi, lo uint64 }

// packSlot records where one dimension's axis index lives inside a
// CompactKey. The layout is fixed at Space construction, so packing and
// unpacking are branch-light shift/mask loops.
type packSlot struct {
	word  uint8 // 0 = lo, 1 = hi
	shift uint8 // bit offset within the word
	width uint8 // bits occupied (0 for single-value dimensions)
}

// Space is an immutable composition of dimensions.
type Space struct {
	dims  []Dimension
	index map[string]int
	pack  []packSlot
}

// NewSpace composes dimensions into a hyperspace. Dimension names must be
// unique.
func NewSpace(dims ...Dimension) (*Space, error) {
	s := &Space{index: make(map[string]int, len(dims))}
	for _, d := range dims {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.index[d.Name]; dup {
			return nil, fmt.Errorf("scenario: duplicate dimension %q", d.Name)
		}
		s.index[d.Name] = len(s.dims)
		s.dims = append(s.dims, d)
	}
	if len(s.dims) == 0 {
		return nil, fmt.Errorf("scenario: space needs at least one dimension")
	}
	if err := s.layoutCompact(); err != nil {
		return nil, err
	}
	return s, nil
}

// layoutCompact assigns each dimension its bit slot inside CompactKey.
// A dimension never straddles the lo/hi word boundary.
func (s *Space) layoutCompact() error {
	s.pack = make([]packSlot, len(s.dims))
	word, shift := uint8(0), uint8(0)
	for i, d := range s.dims {
		width := uint8(bits.Len64(uint64(d.Count() - 1)))
		if int(shift)+int(width) > 64 {
			word++
			shift = 0
		}
		if word > 1 {
			return fmt.Errorf("scenario: space needs %d+ index bits, exceeding the 128-bit compact key", 64+int(shift)+int(width))
		}
		s.pack[i] = packSlot{word: word, shift: shift, width: width}
		shift += width
	}
	return nil
}

// MustNewSpace is NewSpace that panics on error, for static space tables.
func MustNewSpace(dims ...Dimension) *Space {
	s, err := NewSpace(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dimensions returns a copy of the space's dimensions.
func (s *Space) Dimensions() []Dimension {
	cp := make([]Dimension, len(s.dims))
	copy(cp, s.dims)
	return cp
}

// Dim looks a dimension up by name.
func (s *Space) Dim(name string) (Dimension, bool) {
	i, ok := s.index[name]
	if !ok {
		return Dimension{}, false
	}
	return s.dims[i], true
}

// Size returns the number of points in the hyperspace (the paper's
// 4,096 x 25 x 2 = 204,800 for the PBFT experiment).
func (s *Space) Size() uint64 {
	size := uint64(1)
	for _, d := range s.dims {
		size *= uint64(d.Count())
	}
	return size
}

// Random draws a uniform random scenario.
func (s *Space) Random(rng *rand.Rand) Scenario {
	vals := make([]int64, len(s.dims))
	for i, d := range s.dims {
		vals[i] = d.Random(rng)
	}
	return Scenario{space: s, values: vals}
}

// At builds the scenario at the given per-dimension axis indices (for
// exhaustive grid iteration). Indices out of range are clamped.
func (s *Space) At(indices []int64) Scenario {
	vals := make([]int64, len(s.dims))
	for i, d := range s.dims {
		var idx int64
		if i < len(indices) {
			idx = indices[i]
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= d.Count() {
			idx = d.Count() - 1
		}
		vals[i] = d.Value(idx)
	}
	return Scenario{space: s, values: vals}
}

// New builds a scenario from explicit dimension values (clamped onto the
// axes); unset dimensions take their minimum.
func (s *Space) New(values map[string]int64) Scenario {
	vals := make([]int64, len(s.dims))
	for i, d := range s.dims {
		vals[i] = d.Min
		if v, ok := values[d.Name]; ok {
			vals[i] = d.Clamp(v)
		}
	}
	return Scenario{space: s, values: vals}
}

// Rebind rebuilds a scenario of another space onto s by dimension name:
// values carry over (clamped onto s's axes), dimensions the source lacks
// take their minimum. Because dimension values are absolute, a scenario
// of an axis-strided sub-space rebinds onto its parent space at exactly
// the same point — the shard merge path depends on this.
func (s *Space) Rebind(sc Scenario) Scenario {
	vals := make([]int64, len(s.dims))
	for i, d := range s.dims {
		vals[i] = d.Min
		if v, ok := sc.Get(d.Name); ok {
			vals[i] = d.Clamp(v)
		}
	}
	return Scenario{space: s, values: vals}
}

// Enumerate calls fn for every point of the space in lexicographic axis
// order, stopping early if fn returns false.
func (s *Space) Enumerate(fn func(Scenario) bool) {
	indices := make([]int64, len(s.dims))
	for {
		if !fn(s.At(indices)) {
			return
		}
		i := len(indices) - 1
		for i >= 0 {
			indices[i]++
			if indices[i] < s.dims[i].Count() {
				break
			}
			indices[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// Scenario is one immutable point of a hyperspace.
type Scenario struct {
	space  *Space
	values []int64
}

// Space returns the hyperspace the scenario belongs to.
func (sc Scenario) Space() *Space { return sc.space }

// Valid reports whether the scenario is bound to a space.
func (sc Scenario) Valid() bool { return sc.space != nil }

// Get returns the value of the named dimension; ok is false if the
// dimension does not exist in the scenario's space.
func (sc Scenario) Get(name string) (int64, bool) {
	if sc.space == nil {
		return 0, false
	}
	i, ok := sc.space.index[name]
	if !ok {
		return 0, false
	}
	return sc.values[i], true
}

// GetOr returns the named dimension's value or def when absent.
func (sc Scenario) GetOr(name string, def int64) int64 {
	if v, ok := sc.Get(name); ok {
		return v
	}
	return def
}

// With returns a copy of the scenario with the named dimension set to v
// (clamped). Unknown names return the scenario unchanged.
func (sc Scenario) With(name string, v int64) Scenario {
	if sc.space == nil {
		return sc
	}
	i, ok := sc.space.index[name]
	if !ok {
		return sc
	}
	vals := make([]int64, len(sc.values))
	copy(vals, sc.values)
	vals[i] = sc.space.dims[i].Clamp(v)
	return Scenario{space: sc.space, values: vals}
}

// Compact returns the scenario's packed identity. It allocates nothing
// and two scenarios of the same space have equal compact keys exactly
// when they are the same point, so it replaces Key() in dedup maps.
func (sc Scenario) Compact() CompactKey {
	var k CompactKey
	if sc.space == nil {
		return k
	}
	for i := range sc.space.dims {
		d := &sc.space.dims[i]
		slot := sc.space.pack[i]
		idx := uint64((sc.values[i] - d.Min) / d.Step)
		if slot.word == 0 {
			k.lo |= idx << slot.shift
		} else {
			k.hi |= idx << slot.shift
		}
	}
	return k
}

// Words returns the raw 128-bit packing of the key, for serialization.
func (k CompactKey) Words() (hi, lo uint64) { return k.hi, k.lo }

// KeyFromWords rebuilds a CompactKey from its raw words (the inverse of
// Words). Stray bits outside a space's packed layout are tolerated by
// FromCompact, which clamps every index onto its axis.
func KeyFromWords(hi, lo uint64) CompactKey { return CompactKey{hi: hi, lo: lo} }

// FromCompact rebuilds the scenario a CompactKey of this space encodes
// (the inverse of Scenario.Compact). Out-of-range indices are clamped
// onto the axis, mirroring At.
func (s *Space) FromCompact(k CompactKey) Scenario {
	vals := make([]int64, len(s.dims))
	for i := range s.dims {
		d := &s.dims[i]
		slot := s.pack[i]
		mask := uint64(1)<<slot.width - 1
		var idx uint64
		if slot.word == 0 {
			idx = k.lo >> slot.shift & mask
		} else {
			idx = k.hi >> slot.shift & mask
		}
		if idx >= uint64(d.Count()) {
			idx = uint64(d.Count() - 1)
		}
		vals[i] = d.Value(int64(idx))
	}
	return Scenario{space: s, values: vals}
}

// Weight is the scenario's distance from the all-minimum point of its
// space: the sum of its per-dimension axis indices. Since every
// dimension's minimum is its least-faulty setting (attacks off, smallest
// deployment), Weight measures the size of the fault schedule — the
// quantity Minimize drives down. A scenario is strictly smaller than
// another of the same space when no dimension index is higher and at
// least one is lower, which implies a lower Weight.
func (sc Scenario) Weight() int64 {
	if sc.space == nil {
		return 0
	}
	var w int64
	for i, d := range sc.space.dims {
		w += d.Index(sc.values[i])
	}
	return w
}

// Key returns a canonical string identifying the scenario, used in
// reports and CSV output. Hot dedup paths use Compact() instead.
func (sc Scenario) Key() string {
	if sc.space == nil {
		return ""
	}
	parts := make([]string, len(sc.values))
	for i, d := range sc.space.dims {
		parts[i] = fmt.Sprintf("%s=%d", d.Name, sc.values[i])
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// String formats the scenario for humans.
func (sc Scenario) String() string { return sc.Key() }
