// Package sharding implements the paper's tensor-layout formalism (§2.2):
// sharding specs over device meshes, per-device data regions, and the
// decomposition of a cross-mesh resharding into unit communication tasks
// (Appendix B.2).
package sharding

import (
	"fmt"
	"strconv"
	"strings"

	"alpacomm/internal/mesh"
	"alpacomm/internal/tensor"
)

// DimSharding describes how one tensor dimension is laid out on a mesh:
// replicated (MeshAxes empty) or sharded over one or more mesh axes in
// order (S0, S1, S01, ...).
type DimSharding struct {
	// MeshAxes lists the mesh dimensions this tensor dimension is sharded
	// over, in significance order (S01 means axis 0 is the major axis).
	// Empty means replicated (R).
	MeshAxes []int
}

// Replicated reports whether this dimension is replicated.
func (d DimSharding) Replicated() bool { return len(d.MeshAxes) == 0 }

// Spec is a sharding spec: one DimSharding per tensor dimension, e.g.
// "S01R" for a 2-D tensor whose first dim is sharded over both mesh axes
// and whose second dim is replicated.
type Spec struct {
	Dims []DimSharding
}

// R is a replicated dimension, for building specs as literals.
func R() DimSharding { return DimSharding{} }

// S returns a dimension sharded over the given mesh axes.
func S(axes ...int) DimSharding {
	return DimSharding{MeshAxes: append([]int(nil), axes...)}
}

// NewSpec builds a spec from per-dimension shardings.
func NewSpec(dims ...DimSharding) Spec {
	out := make([]DimSharding, len(dims))
	copy(out, dims)
	return Spec{Dims: out}
}

// Replicated returns the fully replicated spec of the given tensor rank.
func Replicated(rank int) Spec {
	return Spec{Dims: make([]DimSharding, rank)}
}

// Rank returns the tensor rank the spec applies to.
func (s Spec) Rank() int { return len(s.Dims) }

// Validate checks the spec against a mesh and tensor shape: mesh axes must
// exist, no mesh axis may shard two tensor dimensions, and every sharded
// dimension must be long enough to give each shard at least one element.
func (s Spec) Validate(m *mesh.Mesh, shape tensor.Shape) error {
	if len(s.Dims) != shape.Rank() {
		return fmt.Errorf("sharding: spec rank %d != tensor rank %d", len(s.Dims), shape.Rank())
	}
	var small [1]uint64
	used := small[:] // bit a of word a/64 is set once mesh axis a shards a dimension
	if words := (m.Rank() + 63) / 64; words > len(used) {
		used = make([]uint64, words)
	}
	for i, d := range s.Dims {
		deg := 1
		for _, a := range d.MeshAxes {
			if a < 0 || a >= m.Rank() {
				return fmt.Errorf("sharding: dim %d refers to mesh axis %d, mesh rank is %d", i, a, m.Rank())
			}
			w, bit := a/64, uint64(1)<<(a%64)
			if used[w]&bit != 0 {
				return fmt.Errorf("sharding: mesh axis %d used by more than one tensor dimension", a)
			}
			used[w] |= bit
			deg *= m.Shape[a]
		}
		if deg > shape[i] {
			return fmt.Errorf("sharding: dim %d of length %d cannot be sharded %d ways", i, shape[i], deg)
		}
	}
	return nil
}

// ShardDegree returns the number of shards of tensor dimension i on mesh m.
func (s Spec) ShardDegree(m *mesh.Mesh, i int) int {
	deg := 1
	for _, a := range s.Dims[i].MeshAxes {
		deg *= m.Shape[a]
	}
	return deg
}

// Parse builds a spec from the paper's string notation, e.g. "S01R",
// "RS0R", "RRR". Each tensor dimension is either 'R' or 'S' followed by one
// digit per mesh axis.
func Parse(str string) (Spec, error) {
	// Sized up front: one DimSharding per 'R' or 'S', and every dimension's
	// axes carved from one array with room for every character.
	nDims := strings.Count(str, "R") + strings.Count(str, "S")
	dims := make([]DimSharding, 0, nDims)
	var axesBuf []int
	if nDims > 0 && len(str) > nDims {
		axesBuf = make([]int, 0, len(str)-nDims)
	}
	i := 0
	for i < len(str) {
		switch str[i] {
		case 'R':
			dims = append(dims, DimSharding{})
			i++
		case 'S':
			i++
			start := i
			for i < len(str) && str[i] >= '0' && str[i] <= '9' {
				i++
			}
			if i == start {
				return Spec{}, fmt.Errorf("sharding: 'S' without mesh axes in %q", str)
			}
			from := len(axesBuf)
			for _, c := range str[start:i] {
				axesBuf = append(axesBuf, int(c-'0'))
			}
			dims = append(dims, DimSharding{MeshAxes: axesBuf[from:len(axesBuf):len(axesBuf)]})
		default:
			return Spec{}, fmt.Errorf("sharding: unexpected character %q in spec %q", str[i], str)
		}
	}
	if len(dims) == 0 {
		return Spec{}, fmt.Errorf("sharding: empty spec")
	}
	return Spec{Dims: dims}, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(str string) Spec {
	s, err := Parse(str)
	if err != nil {
		panic(err)
	}
	return s
}

// String renders the spec in the paper's notation.
func (s Spec) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends the spec in the paper's notation (String's text) to b.
func (s Spec) AppendTo(b []byte) []byte {
	for _, d := range s.Dims {
		if d.Replicated() {
			b = append(b, 'R')
			continue
		}
		b = append(b, 'S')
		for _, a := range d.MeshAxes {
			b = strconv.AppendInt(b, int64(a), 10)
		}
	}
	return b
}

// Equal reports whether two specs are identical.
func (s Spec) Equal(o Spec) bool {
	if len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		a, b := s.Dims[i].MeshAxes, o.Dims[i].MeshAxes
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}
