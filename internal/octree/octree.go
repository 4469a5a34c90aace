// Package octree implements the paper's adaptive-sampling data structure
// (§3.2 step 3, §4 "Octrees for adaptive sampling"): a spatial partition of
// the N³ grid into cubic cells, each carrying a downsampling rate, stored
// as compact flat metadata — "five consecutive integers capturing the
// details of one octree cell: the co-ordinates of the corner point
// (x, y, z), the downsampling rate of that cell and a count of the total
// number of samples in the cells that come before the current cell".
package octree

import (
	"fmt"

	"lowcomm3d/internal/grid"
)

// RateFunc decides the downsampling rate of a candidate cell. It returns a
// positive power-of-two rate when the whole cell can be sampled uniformly
// at that rate, or 0 when the cell straddles regions of different density
// and must be subdivided.
type RateFunc func(b grid.Box) int

// Cell is one octree leaf: a cubic region sampled with stride Rate along
// every axis. The sample lattice includes both end planes of the cell
// (positions lo, lo+r, …, lo+size, the last wrapping periodically onto the
// neighbouring cell) so each cell is self-contained for trilinear
// reconstruction — no neighbour lookups during the accumulation step.
type Cell struct {
	Box  grid.Box
	Rate int
}

// LatticePoints returns the number of sample points per axis:
// size/rate + 1 (endpoint included).
func (c Cell) LatticePoints() int {
	return (c.Box.Hi[0]-c.Box.Lo[0])/c.Rate + 1
}

// SampleCount returns the number of samples stored for this cell.
func (c Cell) SampleCount() int {
	m := c.LatticePoints()
	return m * m * m
}

// Tree is a complete octree decomposition of a grid.
type Tree struct {
	Dim   grid.Dim3
	Cells []Cell
}

// Build constructs an octree over the cubic power-of-two grid d by
// recursive subdivision: a candidate cell is emitted as a leaf when rate
// returns a positive value, otherwise it is split into its eight octants.
// Rates are clamped to the cell size (so a coarse far-field rate still
// works in small residual cells).
func Build(d grid.Dim3, rate RateFunc) (*Tree, error) {
	if d.Nx != d.Ny || d.Ny != d.Nz {
		return nil, fmt.Errorf("octree: grid %v must be cubic", d)
	}
	n := d.Nx
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("octree: grid size %d must be a power of two", n)
	}
	t := &Tree{Dim: d}
	if err := t.subdivide(grid.CubeAt(grid.Point{0, 0, 0}, n), rate); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Tree) subdivide(b grid.Box, rate RateFunc) error {
	size := b.Hi[0] - b.Lo[0]
	r := rate(b)
	if r < 0 {
		return fmt.Errorf("octree: rate function returned %d for %v", r, b)
	}
	if r == 0 && size == 1 {
		// Cannot split further; a 1-cell is always stored at full rate.
		r = 1
	}
	if r > 0 {
		if r&(r-1) != 0 {
			return fmt.Errorf("octree: rate %d for %v is not a power of two", r, b)
		}
		if r > size {
			r = size
		}
		t.Cells = append(t.Cells, Cell{Box: b, Rate: r})
		return nil
	}
	h := size / 2
	for dz := 0; dz < 2; dz++ {
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				lo := grid.Point{b.Lo[0] + dx*h, b.Lo[1] + dy*h, b.Lo[2] + dz*h}
				if err := t.subdivide(grid.CubeAt(lo, h), rate); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SampleCount returns the total number of samples across all cells.
func (t *Tree) SampleCount() int {
	n := 0
	for _, c := range t.Cells {
		n += c.SampleCount()
	}
	return n
}

// CellCount returns the number of leaf cells.
func (t *Tree) CellCount() int { return len(t.Cells) }

// maxMortonGrid bounds the grid edge Validate accepts: 3·20 interleaved
// bits keep every Morton code and the N³ cover total inside an int.
const maxMortonGrid = 1 << 20

// Validate checks the structural invariants: cells are cubic, lie within
// bounds, have power-of-two rates dividing their sizes, are disjoint, and
// cover the grid exactly.
//
// It runs in one O(cells) pass with no allocation, by accepting exactly
// the trees Build can produce: the grid is a cubic power of two, every
// cell is an aligned power-of-two octant, and the cells appear in the
// depth-first octant order Build emits (x the fastest-varying child). In
// that order each cell's Morton code — the bits of its corner interleaved
// x lowest — equals the number of grid points covered before it, so a
// cursor that must match every cell's code and then advance by its
// volume proves disjointness and exact cover together. A disjoint exact
// cover in any other order, or with a cell off its octant alignment, is
// rejected: no encoder in this library emits one, and an untrusted stream
// must not be able to buy quadratic checking time.
func (t *Tree) Validate() error {
	n := t.Dim.Nx
	if t.Dim.Ny != n || t.Dim.Nz != n || n < 1 || n&(n-1) != 0 || n > maxMortonGrid {
		return fmt.Errorf("octree: grid %v is not a cubic power of two up to %d", t.Dim, maxMortonGrid)
	}
	cursor := 0
	for i, c := range t.Cells {
		lo, s := c.Box.Lo, c.Box.Size()
		if s[0] != s[1] || s[1] != s[2] {
			return fmt.Errorf("octree: cell %d box %v not cubic", i, c.Box)
		}
		if lo[0] < 0 || lo[1] < 0 || lo[2] < 0 || s[0] < 1 || s[0] > n ||
			lo[0] > n-s[0] || lo[1] > n-s[0] || lo[2] > n-s[0] {
			return fmt.Errorf("octree: cell %d box %v outside grid", i, c.Box)
		}
		if c.Rate < 1 || c.Rate&(c.Rate-1) != 0 {
			return fmt.Errorf("octree: cell %d rate %d invalid", i, c.Rate)
		}
		if s[0]%c.Rate != 0 {
			return fmt.Errorf("octree: cell %d rate %d does not divide size %d", i, c.Rate, s[0])
		}
		if s[0]&(s[0]-1) != 0 || (lo[0]|lo[1]|lo[2])&(s[0]-1) != 0 {
			return fmt.Errorf("octree: cell %d box %v is not an aligned octant", i, c.Box)
		}
		if code := morton(lo); code != cursor {
			if code < cursor {
				return fmt.Errorf("octree: cell %d box %v overlaps an earlier cell or is out of octant order", i, c.Box)
			}
			return fmt.Errorf("octree: gap of %d points before cell %d box %v", code-cursor, i, c.Box)
		}
		cursor += s[0] * s[0] * s[0]
	}
	if cursor != n*n*n {
		return fmt.Errorf("octree: cells cover %d points, grid has %d", cursor, n*n*n)
	}
	return nil
}

// morton interleaves the bits of an in-grid corner, x in the lowest bit.
func morton(p grid.Point) int {
	return spread3(p[0]) | spread3(p[1])<<1 | spread3(p[2])<<2
}

// spread3 moves bit b of a 21-bit value to bit 3b.
func spread3(v int) int {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return int(x)
}

// ForEachSample visits every sample point of every cell in storage order.
// Sample coordinates on the high end planes wrap periodically onto the
// torus, matching the circular-convolution convention of the library. f
// receives the cell index, the running sample index, and the wrapped grid
// coordinates.
func (t *Tree) ForEachSample(f func(cell, sample int, x, y, z int)) {
	n := t.Dim.Nx
	idx := 0
	for ci, c := range t.Cells {
		m := c.LatticePoints()
		for iz := 0; iz < m; iz++ {
			z := (c.Box.Lo[2] + iz*c.Rate) % n
			for iy := 0; iy < m; iy++ {
				y := (c.Box.Lo[1] + iy*c.Rate) % n
				for ix := 0; ix < m; ix++ {
					x := (c.Box.Lo[0] + ix*c.Rate) % n
					f(ci, idx, x, y, z)
					idx++
				}
			}
		}
	}
}

// CellOffsets returns, for each cell, the index of its first sample in the
// flat sample array (the cumulative counts of the paper's fifth integer).
func (t *Tree) CellOffsets() []int {
	off := make([]int, len(t.Cells))
	cum := 0
	for i, c := range t.Cells {
		off[i] = cum
		cum += c.SampleCount()
	}
	return off
}

// FindCell returns the index of the cell containing (x, y, z), or -1. It
// scans the cells linearly — O(cells) per query, fine for the hundreds of
// cells a result tree holds; Locator answers in O(tree depth) for many
// queries against a large tree.
func (t *Tree) FindCell(x, y, z int) int {
	for i, c := range t.Cells {
		if c.Box.Contains(x, y, z) {
			return i
		}
	}
	return -1
}

// Locator answers point-location queries in O(tree depth) by descending
// the implicit octree, instead of FindCell's linear scan — worthwhile when
// querying many points against a large adaptive tree (rendering,
// per-voxel rate lookups).
type Locator struct {
	n      int
	leaves map[grid.Box]int
}

// NewLocator indexes the tree's leaves for fast descent.
func NewLocator(t *Tree) *Locator {
	l := &Locator{n: t.Dim.Nx, leaves: make(map[grid.Box]int, len(t.Cells))}
	for i, c := range t.Cells {
		l.leaves[c.Box] = i
	}
	return l
}

// Find returns the index of the leaf cell containing (x, y, z), or −1.
func (l *Locator) Find(x, y, z int) int {
	if x < 0 || x >= l.n || y < 0 || y >= l.n || z < 0 || z >= l.n {
		return -1
	}
	b := grid.CubeAt(grid.Point{0, 0, 0}, l.n)
	for {
		if i, ok := l.leaves[b]; ok {
			return i
		}
		size := b.Hi[0] - b.Lo[0]
		if size <= 1 {
			return -1 // malformed tree: no leaf on the descent path
		}
		h := size / 2
		lo := b.Lo
		if x >= lo[0]+h {
			lo[0] += h
		}
		if y >= lo[1]+h {
			lo[1] += h
		}
		if z >= lo[2]+h {
			lo[2] += h
		}
		b = grid.CubeAt(lo, h)
	}
}

// MaxRate returns the coarsest rate in the tree.
func (t *Tree) MaxRate() int {
	m := 0
	for _, c := range t.Cells {
		if c.Rate > m {
			m = c.Rate
		}
	}
	return m
}
