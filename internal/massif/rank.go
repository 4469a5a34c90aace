package massif

import (
	"fmt"
	"math"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// distSolve is what both distributed fault policies share: the
// decomposition and its round-robin partition, Γ̂, the residual
// normalization, the result under assembly, and the per-rank accounting
// gathered into it.
type distSolve struct {
	m     *Microstructure
	E     grid.SymTensor
	opt   LowCommOptions
	o     Options // opt.Options with defaults applied
	boxes []grid.Box
	parts [][]grid.Box
	gamma green.Gamma
	normE float64
	kd    grid.Dim3

	// out's strain is written by disjoint regions per rank (assembly is
	// not counted as solver communication, like MPI-IO output).
	out            *LowCommResult
	residuals      []float64 // rank 0's residual per iteration
	iterDone       []int
	converged      []bool
	bytesPerIter   []int
	samplesPerIter []int
}

func newDistSolve(m *Microstructure, E grid.SymTensor, opt LowCommOptions, p int) (*distSolve, error) {
	boxes, err := grid.Decompose(m.Dim, opt.SubSize)
	if err != nil {
		return nil, err
	}
	parts, err := grid.Partition(boxes, p)
	if err != nil {
		return nil, err
	}
	lambda0, mu0 := m.ReferenceMedium()
	normE := E.Norm() * math.Sqrt(float64(m.Dim.Len()))
	if normE == 0 {
		return nil, fmt.Errorf("massif: applied strain must be nonzero")
	}
	o := opt.Options.withDefaults()
	out := &LowCommResult{}
	out.Comm.SubDomains = len(boxes)
	out.Result.Strain = grid.NewTensorField(m.Dim)
	out.Result.Stress = grid.NewTensorField(m.Dim)
	return &distSolve{
		m: m, E: E, opt: opt, o: o,
		boxes: boxes, parts: parts,
		gamma: green.Gamma{Lambda0: lambda0, Mu0: mu0},
		normE: normE,
		kd:    grid.Cube(opt.SubSize),

		out:            out,
		residuals:      make([]float64, o.MaxIter),
		iterDone:       make([]int, p),
		converged:      make([]bool, p),
		bytesPerIter:   make([]int, p),
		samplesPerIter: make([]int, p),
	}, nil
}

// record books rank's finished iteration with residual r and reports
// whether the solve has converged.
func (d *distSolve) record(rank, iter int, r float64) bool {
	d.iterDone[rank] = iter + 1
	if rank == 0 {
		d.residuals[iter] = r
	}
	if r < d.o.Tol {
		d.converged[rank] = true
		return true
	}
	return false
}

// finish completes the result once every rank has assembled its strain:
// iteration count and convergence from rank lead, the exchange volume
// summed over ranks, and the stress of the assembled strain.
func (d *distSolve) finish(lead int) (*LowCommResult, error) {
	out := d.out
	out.Iterations = d.iterDone[lead]
	out.Converged = d.converged[lead]
	out.Residuals = append(out.Residuals, d.residuals[:d.iterDone[0]]...)
	out.Comm.Iterations = out.Iterations
	for rank := range d.bytesPerIter {
		out.Comm.BytesPerIter += d.bytesPerIter[rank]
		out.Comm.SamplesPerIter += d.samplesPerIter[rank]
	}
	out.Comm.DenseBytesPerIter = 8 * d.m.Dim.Len() * grid.NumVoigt * len(d.boxes)
	if _, err := d.m.StressField(out.Strain, out.Stress); err != nil {
		return nil, err
	}
	return out, nil
}

// boxState is one sub-domain's solver state: its k³ local strain and the
// local Γ̂ pipeline.
type boxState struct {
	box   grid.Box
	eps   *grid.TensorField
	local *tensorLocal
}

// boxStates builds the pipelines for boxes with their strain at E.
func (d *distSolve) boxStates(boxes []grid.Box) ([]*boxState, error) {
	states := make([]*boxState, len(boxes))
	for i, b := range boxes {
		tree, err := boxTree(d.m, b, d.opt)
		if err != nil {
			return nil, err
		}
		local, err := newTensorLocal(d.m.Dim, b, d.gamma, tree, d.opt)
		if err != nil {
			return nil, err
		}
		eps := grid.NewTensorField(d.kd)
		eps.Fill(d.E)
		states[i] = &boxState{box: b, eps: eps, local: local}
	}
	return states, nil
}

// loadStrain overwrites the states' strain from a box → Voigt component →
// data snapshot; boxes beyond the snapshot keep their strain.
func loadStrain(states []*boxState, snap [][][]float64) {
	for i, st := range states {
		if i < len(snap) {
			for v := 0; v < grid.NumVoigt; v++ {
				copy(st.eps.Comp[v].Data, snap[i][v])
			}
		}
	}
}

// rankKernel is one rank's share of an Algorithm 2 iteration, the body
// both distributed fault policies run: local Γ̂ convolutions of the owned
// sub-domains (zero communication), accumulation of the patches received
// in the single sparse exchange, the partial sums of the residual
// all-reduce, and the mean-pinned strain update. The exchange and the
// all-reduce themselves, and what to do when a peer dies inside them,
// belong to the caller.
type rankKernel struct {
	d      *distSolve
	states []*boxState
	deltas []*grid.TensorField // Δε per owned box
	sigma  []*grid.Field       // σ scratch shared by every box
	// stream releases each pipeline's slab buffers after its run, so the
	// rank holds one pipeline's slabs at a time (the footprint
	// HealWorkerBytes charges); otherwise the slabs stay resident across
	// iterations.
	stream bool
}

func (d *distSolve) newKernel(rank int, stream bool) (*rankKernel, error) {
	states, err := d.boxStates(d.parts[rank])
	if err != nil {
		return nil, err
	}
	k := &rankKernel{d: d, states: states, stream: stream}
	k.sigma = make([]*grid.Field, grid.NumVoigt)
	for v := range k.sigma {
		k.sigma[v] = grid.NewField(d.kd)
	}
	k.deltas = make([]*grid.TensorField, len(states))
	for i := range k.deltas {
		k.deltas[i] = grid.NewTensorField(d.kd)
	}
	return k, nil
}

// strain returns the owned boxes' strain as box → Voigt component → data,
// aliasing the live fields.
func (k *rankKernel) strain() [][][]float64 {
	out := make([][][]float64, len(k.states))
	for i, st := range k.states {
		out[i] = make([][]float64, grid.NumVoigt)
		for v := 0; v < grid.NumVoigt; v++ {
			out[i][v] = st.eps.Comp[v].Data
		}
	}
	return out
}

// convolve runs the local half of an iteration for states at their
// current strain — σ = C:ε and the Γ̂ convolution (Algorithm 2 lines
// 3–5) — and encodes one sparse payload per rank. states are the rank's
// own boxes or, for a speculative backup, a peer's. It also returns the
// sample and compressed-byte counts.
func (k *rankKernel) convolve(states []*boxState) ([][]float64, int, int, error) {
	d := k.d
	results := make([][]*sample.Compressed, 0, len(states))
	nsamp, nbytes := 0, 0
	for _, st := range states {
		fillSigma(d.m, st.box, st.eps, d.kd, k.sigma)
		comps, ns, nb, err := st.local.run(k.sigma)
		if err != nil {
			return nil, 0, 0, err
		}
		if k.stream {
			st.local.releaseBuffers()
		}
		nsamp += ns
		nbytes += nb
		results = append(results, comps)
	}
	return encodePeerMsgs(results, d.parts, d.m.Dim.Bounds(), len(d.parts)), nsamp, nbytes, nil
}

// accumulate rebuilds Δε on the owned boxes from the payloads received
// from every rank (Algorithm 2 line 6). A nil payload contributes nothing.
func (k *rankKernel) accumulate(recv [][]float64) error {
	for i := range k.deltas {
		for v := range k.deltas[i].Comp {
			k.deltas[i].Comp[v].Zero()
		}
	}
	for _, buf := range recv {
		if buf == nil {
			continue
		}
		perComp, err := sample.DecodeComponentPatches(buf)
		if err != nil {
			return err
		}
		for v, ps := range perComp {
			for _, p := range ps {
				for i, st := range k.states {
					if err := p.AddToSubField(k.deltas[i].Comp[v], st.box.Lo, 1); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// partials returns this rank's 12 all-reduce inputs: ΣΔε then ΣΔε² per
// Voigt component.
func (k *rankKernel) partials() []float64 {
	partial := make([]float64, 2*grid.NumVoigt)
	for i := range k.deltas {
		for v := 0; v < grid.NumVoigt; v++ {
			for _, d := range k.deltas[i].Comp[v].Data {
				partial[v] += d
				partial[grid.NumVoigt+v] += d * d
			}
		}
	}
	return partial
}

// update applies ε_d ← ε_d − (Δε − mean) (line 7) from the all-reduced
// partials, with the mean pinned over nVox voxels, and returns the
// relative residual.
func (k *rankKernel) update(total []float64, nVox float64) float64 {
	delta2 := 0.0
	var mean [grid.NumVoigt]float64
	for v := 0; v < grid.NumVoigt; v++ {
		mean[v] = total[v] / nVox
		wgt := 1.0
		if v >= grid.VYZ {
			wgt = 2.0
		}
		// Σ(d−μ)² = Σd² − n·μ².
		delta2 += wgt * (total[grid.NumVoigt+v] - nVox*mean[v]*mean[v])
	}
	for i, st := range k.states {
		for v := 0; v < grid.NumVoigt; v++ {
			ed := st.eps.Comp[v].Data
			for j, d := range k.deltas[i].Comp[v].Data {
				ed[j] -= d - mean[v]
			}
		}
	}
	return math.Sqrt(math.Max(delta2, 0)) / k.d.normE
}

// assemble writes the owned boxes' strain into the shared result.
func (k *rankKernel) assemble() error {
	for _, st := range k.states {
		for v := 0; v < grid.NumVoigt; v++ {
			sub := &grid.Field{Dim: k.d.kd, Data: st.eps.Comp[v].Data}
			if err := k.d.out.Strain.Comp[v].InsertBox(st.box, sub); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillSigma computes σ = C(x):ε voxelwise for one sub-domain against the
// global phase map.
func fillSigma(m *Microstructure, box grid.Box, eps *grid.TensorField, kd grid.Dim3, sigma []*grid.Field) {
	k := kd.Nx
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				s := m.StressAt(box.Lo[0]+x, box.Lo[1]+y, box.Lo[2]+z, eps.At(x, y, z))
				i := kd.Index(x, y, z)
				for v := 0; v < grid.NumVoigt; v++ {
					sigma[v].Data[i] = s[v]
				}
			}
		}
	}
}

// encodePeerMsgs splits the per-box compressed convolution results into
// one payload per destination rank: each peer receives only the patches
// overlapping its sub-domains (the paper's sparse all-to-all).
func encodePeerMsgs(results [][]*sample.Compressed, parts [][]grid.Box, bounds grid.Box, p int) [][]float64 {
	msgs := make([][]float64, p)
	for q := 0; q < p; q++ {
		perComp := make([][]sample.Patch, grid.NumVoigt)
		for _, comps := range results {
			for v, comp := range comps {
				for _, pt := range comp.Patches(bounds) {
					for _, qb := range parts[q] {
						if pt.Cell.Box.Overlaps(qb) {
							perComp[v] = append(perComp[v], pt)
							break
						}
					}
				}
			}
		}
		msgs[q] = sample.EncodeComponentPatches(perComp)
	}
	return msgs
}
