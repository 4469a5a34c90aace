package octree_test

import (
	"fmt"
	"testing"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// policyTrees returns the adaptive trees sample.DefaultPolicy builds for a
// spread of grid sizes, sub-domain boxes, box sizes k and far-field rates.
func policyTrees(t testing.TB) map[string]*octree.Tree {
	t.Helper()
	trees := make(map[string]*octree.Tree)
	for _, n := range []int{8, 16, 32, 64} {
		for _, k := range []int{2, 4, 8} {
			if k > n/2 {
				continue
			}
			// Corner, centred, unaligned and wrapping-edge boxes.
			los := []grid.Point{{0, 0, 0}, {n/2 - k/2, n/2 - k/2, n/2 - k/2}, {1, 3, 5}, {n - k, 0, n / 2}}
			for _, lo := range los {
				for _, far := range []int{8, 16} {
					box := grid.CubeAt(lo, k)
					tree, err := sample.DefaultPolicy(box, far).Tree(grid.Cube(n))
					if err != nil {
						t.Fatalf("n=%d box=%v far=%d: %v", n, box, far, err)
					}
					trees[fmt.Sprintf("n%d/k%d/lo%v/far%d", n, k, lo, far)] = tree
				}
			}
		}
	}
	return trees
}

func clone(tr *octree.Tree) *octree.Tree {
	return &octree.Tree{Dim: tr.Dim, Cells: append([]octree.Cell(nil), tr.Cells...)}
}

func shifted(c octree.Cell, axis, by int) octree.Cell {
	c.Box.Lo[axis] += by
	c.Box.Hi[axis] += by
	return c
}

func resized(c octree.Cell, size int) octree.Cell {
	for a := 0; a < 3; a++ {
		c.Box.Hi[a] = c.Box.Lo[a] + size
	}
	if c.Rate > size {
		c.Rate = size // keep the rate legal so only the geometry is wrong
	}
	return c
}

// TestValidateAcceptsPolicyTrees is the positive half of the property:
// every tree the sampling policy builds passes the linear validation.
func TestValidateAcceptsPolicyTrees(t *testing.T) {
	for name, tr := range policyTrees(t) {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestValidateRejectsSingleMutations is the negative half: each single
// structural mutation of a policy tree is rejected.
func TestValidateRejectsSingleMutations(t *testing.T) {
	for name, tr := range policyTrees(t) {
		nc := len(tr.Cells)
		if nc < 2 {
			t.Fatalf("%s: policy tree has %d cells", name, nc)
		}
		mutants := map[string]func(*octree.Tree){}
		for _, i := range []int{0, nc / 3, nc / 2, nc - 1} {
			j := (i + 1 + nc/4) % nc
			if j != i {
				mutants[fmt.Sprintf("swap %d,%d", i, j)] = func(m *octree.Tree) {
					m.Cells[i], m.Cells[j] = m.Cells[j], m.Cells[i]
				}
			}
			for axis := 0; axis < 3; axis++ {
				mutants[fmt.Sprintf("shift %d axis %d", i, axis)] = func(m *octree.Tree) {
					m.Cells[i] = shifted(m.Cells[i], axis, 1)
				}
			}
			mutants[fmt.Sprintf("drop %d", i)] = func(m *octree.Tree) {
				m.Cells = append(m.Cells[:i], m.Cells[i+1:]...)
			}
			mutants[fmt.Sprintf("duplicate %d", i)] = func(m *octree.Tree) {
				m.Cells = append(m.Cells[:i+1], m.Cells[i:]...)
			}
			size := tr.Cells[i].Box.Hi[0] - tr.Cells[i].Box.Lo[0]
			mutants[fmt.Sprintf("double %d", i)] = func(m *octree.Tree) {
				m.Cells[i] = resized(m.Cells[i], 2*size)
			}
			if size > 1 {
				mutants[fmt.Sprintf("halve %d", i)] = func(m *octree.Tree) {
					m.Cells[i] = resized(m.Cells[i], size/2)
				}
				mutants[fmt.Sprintf("misalign %d", i)] = func(m *octree.Tree) {
					m.Cells[i] = shifted(m.Cells[i], i%3, size/2)
				}
			}
		}
		mutants["non-power-of-two grid"] = func(m *octree.Tree) {
			m.Dim = grid.Cube(m.Dim.Nx + m.Dim.Nx/2)
		}
		for mname, mutate := range mutants {
			m := clone(tr)
			mutate(m)
			if err := m.Validate(); err == nil {
				t.Errorf("%s: mutation %q accepted", name, mname)
			}
		}
	}
}

// TestValidateRejectsNonCanonicalTilings pins the narrowed accept set: a
// disjoint exact cover that Build cannot emit — out of Morton order, or
// with a cell off its octant alignment — is rejected even though no two
// cells overlap and no point is left uncovered.
func TestValidateRejectsNonCanonicalTilings(t *testing.T) {
	tr, err := sample.DefaultPolicy(grid.CubeAt(grid.Point{8, 8, 8}, 8), 8).Tree(grid.Cube(32))
	if err != nil {
		t.Fatal(err)
	}
	rev := clone(tr)
	for i, j := 0, len(rev.Cells)-1; i < j; i, j = i+1, j-1 {
		rev.Cells[i], rev.Cells[j] = rev.Cells[j], rev.Cells[i]
	}
	if err := rev.Validate(); err == nil {
		t.Error("reversed cell order accepted")
	}

	// An exact tiling of 8³ around a 4-cube offset by 2 along x: slabs of
	// 2-cubes on either side of it in x, then the upper half in 4-cubes.
	odd := &octree.Tree{Dim: grid.Cube(8)}
	add := func(x, y, z, s int) {
		odd.Cells = append(odd.Cells, octree.Cell{Box: grid.CubeAt(grid.Point{x, y, z}, s), Rate: 1})
	}
	add(2, 0, 0, 4)
	for _, x := range []int{0, 6} {
		for y := 0; y < 4; y += 2 {
			for z := 0; z < 4; z += 2 {
				add(x, y, z, 2)
			}
		}
	}
	for z := 0; z < 8; z += 4 {
		for y := 0; y < 8; y += 4 {
			for x := 0; x < 8; x += 4 {
				if y == 0 && z == 0 {
					continue
				}
				add(x, y, z, 4)
			}
		}
	}
	vol := 0
	for _, c := range odd.Cells {
		vol += c.Box.Volume()
	}
	if vol != 512 {
		t.Fatalf("hand-built tiling covers %d points", vol)
	}
	if err := odd.Validate(); err == nil {
		t.Error("misaligned exact tiling accepted")
	}
}

// wireSmallTree is the result tree of the wire-small benchmark workload:
// N=32, one k=8 box at [4,12)×[12,20)×[20,28), far-field rate 8.
func wireSmallTree(b *testing.B) *octree.Tree {
	tr, err := sample.DefaultPolicy(grid.BoxAt(grid.Point{4, 12, 20}, 8, 8, 8), 8).Tree(grid.Cube(32))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTreeValidate times validation of the wire-small result tree and
// of a 32³ full-rate tree (32768 unit cells) — the linear-scaling check.
func BenchmarkTreeValidate(b *testing.B) {
	full, err := octree.Build(grid.Cube(32), func(bx grid.Box) int {
		if bx.Hi[0]-bx.Lo[0] > 1 {
			return 0
		}
		return 1
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		tree *octree.Tree
	}{{"wire-small", wireSmallTree(b)}, {"full-32", full}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(bc.tree.Cells)), "cells")
			for i := 0; i < b.N; i++ {
				if err := bc.tree.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
