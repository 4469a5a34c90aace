package massif

import (
	"errors"
	"fmt"
	"sort"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
)

// SolveLowCommDistributed runs Algorithm 2 on a simulated cluster — the
// paper's Fig. 2 deployment: every worker owns a round-robin share of the
// k³ sub-domains and holds only those sub-domains' strain and stress
// fields, never the global grid. Each iteration performs the local
// convolutions (zero communication), ONE all-to-all of octree-compressed
// patches for the accumulation step, and one small all-reduce for the
// global residual and mean-strain pinning. The result agrees with the
// serial SolveLowComm to 1e-9 relative: accumulation and mean pinning sum
// in a different order, so the last bits differ. On a healthy fabric the
// self-healing path (opt.Heal) is bit-identical to this freeze-and-omit
// path, since both run the same per-rank kernel (rankKernel).
//
// On a faulty fabric the solve degrades instead of aborting: transient
// faults heal in the transport layer; a worker declared dead mid-solve
// triggers a checkpoint restart of the affected iteration on the
// survivors (the all-reduce broadcast doubles as the failure-agreement
// round, so every survivor redoes the same iteration with the same dead
// set), the fixed point continues over the live sub-domains with the mean
// pinned over live voxels, and the dead rank's sub-domains enter the final
// assembly frozen at their last checkpointed strain. The outcome is
// recorded in the result's Fault report. A dead root (rank 0) is not
// survivable — the reduction tree has no other trunk.
func SolveLowCommDistributed(c *cluster.Cluster, m *Microstructure, E grid.SymTensor, opt LowCommOptions) (*LowCommResult, error) {
	if opt.Heal != nil {
		return solveSelfHealing(c, m, E, opt)
	}
	d, err := newDistSolve(m, E, opt, c.P)
	if err != nil {
		return nil, err
	}
	restartsPer := make([]int, c.P)
	ckpt := newStrainCheckpoint()
	deadAtStart := make([]bool, c.P)
	for _, q := range c.DeadWorkers() {
		deadAtStart[q] = true
	}

	workerFn := func(w *cluster.Worker) error {
		k, err := d.newKernel(w.ID, false)
		if err != nil {
			return err
		}
		// Fault-tolerance state: the lockstep-consistent dead mask (agreed
		// through the all-reduce broadcast each iteration, so every
		// survivor takes the same restart decisions) plus the in-memory
		// checkpoint of the owned strain for checkpoint/restart.
		knownDead := make([]bool, c.P)
		copy(knownDead, deadAtStart)
		// frozen[q] is the last payload delivered by peer q. When q dies,
		// its contribution is not omitted — omitting a box's stress
		// convolution perturbs the fixed-point operator by O(‖E‖) every
		// iteration and destabilizes the solve — but frozen: survivors keep
		// accumulating q's last delivered patches, the constant source term
		// matching the frozen strain its sub-domains are assembled with.
		frozen := make([][]float64, c.P)
		liveVoxels := func() float64 {
			nb := 0
			for q := 0; q < c.P; q++ {
				if !knownDead[q] {
					nb += len(d.parts[q])
				}
			}
			return float64(nb * d.kd.Len())
		}

		for iter := 0; iter < d.o.MaxIter; iter++ {
			ckpt.save(w.ID, k.strain())
			var total []float64
			for {
				msgs, nsamp, nbytes, err := k.convolve(k.states)
				if err != nil {
					return err
				}
				d.bytesPerIter[w.ID] = nbytes
				d.samplesPerIter[w.ID] = nsamp
				recv, _, err := w.AllToAllFT(msgs)
				if err != nil {
					return err // this worker's own injected crash
				}
				// A dead peer's slot is nil: substitute its frozen
				// contribution. (After a retry-exhaustion death — as opposed
				// to an injected crash, which dies before sending —
				// survivors may have frozen the peer one exchange apart; the
				// checkpoint redo keeps the iteration itself consistent, and
				// the residual absorbs the one-iteration-old source.)
				for q, buf := range recv {
					if buf == nil {
						recv[q] = frozen[q]
					} else {
						frozen[q] = buf
					}
				}
				if err := k.accumulate(recv); err != nil {
					return err
				}

				// Global mean pinning + residual in one 12-value all-reduce,
				// which doubles as the failure-agreement round: the root's
				// broadcast hands every survivor the same dead mask.
				tot, mask, err := w.AllReduceSumFT(k.partials())
				if err != nil {
					return err
				}
				grew := false
				for i := range mask {
					if mask[i] && !knownDead[i] {
						knownDead[i] = true
						grew = true
					}
				}
				if !grew {
					total = tot
					break
				}
				// A peer died inside this iteration, so survivors may hold
				// inconsistent accumulations (some received the dead rank's
				// patches, others declared it dead mid exchange). Restore the
				// iteration-start strain from the checkpoint and redo the
				// iteration with the dead set excluded everywhere.
				restartsPer[w.ID]++
				if restartsPer[w.ID] > c.P {
					return fmt.Errorf("massif: worker %d exceeded restart limit at iteration %d", w.ID, iter)
				}
				snap, ok := ckpt.load(w.ID)
				if !ok {
					return fmt.Errorf("massif: worker %d has no checkpoint to restart from", w.ID)
				}
				loadStrain(k.states, snap)
			}
			// Mean and residual over live voxels: dead sub-domains are
			// frozen, so pinning the live mean keeps the survivors' average
			// strain at E.
			if d.record(w.ID, iter, k.update(total, liveVoxels())) {
				break
			}
		}
		return k.assemble()
	}
	errs := c.RunAll(workerFn)
	deadRanks := map[int]bool{}
	var lastDeadErr error
	for rank, e := range errs {
		if e == nil {
			continue
		}
		var ce *cluster.CrashError
		var fe *cluster.FaultError
		if errors.As(e, &ce) || errors.As(e, &fe) {
			deadRanks[rank] = true
			lastDeadErr = e
			continue
		}
		return nil, e
	}
	for _, q := range c.DeadWorkers() {
		deadRanks[q] = true
	}

	// Degraded assembly: a dead rank never reached the assembly step, so
	// its sub-domains enter the result frozen at its last checkpointed
	// strain (or the applied strain E if it died before checkpointing).
	for q := range deadRanks {
		snap, ok := ckpt.load(q)
		sub := grid.NewField(d.kd)
		for i, b := range d.parts[q] {
			for v := 0; v < grid.NumVoigt; v++ {
				if ok {
					copy(sub.Data, snap[i][v])
				} else {
					for j := range sub.Data {
						sub.Data[j] = E[v]
					}
				}
				if err := d.out.Strain.Comp[v].InsertBox(b, sub); err != nil {
					return nil, err
				}
			}
		}
	}

	live := -1
	for q := 0; q < c.P; q++ {
		if !deadRanks[q] {
			live = q
			break
		}
	}
	if live < 0 {
		// Every rank died: there is no surviving state worth assembling
		// into a degraded result. Surface the typed sentinel (wrapping the
		// last worker failure) so callers can distinguish "total loss" from
		// "degraded but usable".
		return nil, &AllDeadError{Workers: c.P, Last: lastDeadErr}
	}
	fault := &d.out.Fault
	if len(deadRanks) > 0 {
		fault.Degraded = true
		for q := range deadRanks {
			fault.Dead = append(fault.Dead, q)
		}
		sort.Ints(fault.Dead)
	}
	for _, rp := range restartsPer {
		if rp > fault.Restarts {
			fault.Restarts = rp
		}
	}
	return d.finish(live)
}
