package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/massif"
)

// maxStressRelErr is the accuracy bound of the low-communication solve
// against the dense reference, the bound the massif package's
// TestLowCommAdaptiveApproximatesReference holds it to.
const maxStressRelErr = 0.05

// maxSerialRelDiff bounds how far the distributed solve may drift from
// the serial SolveLowComm of the same problem.
const maxSerialRelDiff = 1e-9

// massifReplays bounds how many solves a traced run replays.
const massifReplays = 6

// newMassifProblem builds the two-phase sphere: a compliant sphere in a
// stiff matrix.
func newMassifProblem(in massifDistInputs) (*massif.Microstructure, error) {
	l1, m1 := green.LameFromENu(210, 0.3)
	l2, m2 := green.LameFromENu(70, 0.3)
	m, err := massif.NewMicrostructure(grid.Cube(in.N), massif.Phase{Lambda: l1, Mu: m1}, massif.Phase{Lambda: l2, Mu: m2})
	if err != nil {
		return nil, err
	}
	return m, m.SetSphere(in.Center, in.Radius, 1)
}

// lowCommOptions runs exactly budget iterations: the tolerance is far
// below what the sampled solve reaches.
func lowCommOptions(in massifDistInputs, budget int) massif.LowCommOptions {
	return massif.LowCommOptions{
		Options: massif.Options{Tol: 1e-12, MaxIter: budget},
		SubSize: in.SubSize, FarRate: in.FarRate, Pruned: true,
	}
}

// massifSolve is one timed distributed solve.
type massifSolve struct {
	wall               time.Duration
	iters              int
	bytes, msgs, colls int64
	simSec             float64
	meanXX             float64
	root               int
	a2aPairBytes       int // largest all-to-all buffer between two ranks
}

// distSolve runs one budgeted solve on a fresh cluster.
func distSolve(m *massif.Microstructure, in massifDistInputs, budget int) (massifSolve, error) {
	c, err := cluster.New(in.Ranks, cluster.DefaultParams())
	if err != nil {
		return massifSolve{}, err
	}
	t0 := time.Now()
	res, err := massif.SolveLowCommDistributed(c, m, in.E, lowCommOptions(in, budget))
	wall := time.Since(t0)
	if err != nil {
		return massifSolve{}, err
	}
	s := massifSolve{wall: wall, iters: res.Iterations, meanXX: res.MeanStress()[grid.VXX]}
	s.bytes, s.msgs, s.colls, s.simSec = c.Stats.Snapshot()
	for _, mc := range c.Stats.CollectiveSnapshot() {
		if mc.Op == "all-to-all" && mc.MaxPairBytes > s.a2aPairBytes {
			s.a2aPairBytes = mc.MaxPairBytes
		}
	}
	return s, nil
}

// massifPass is one timed window of back-to-back solves.
type massifPass struct {
	solves          []massifSolve
	elapsed         time.Duration
	gcShare, allocs float64
	mem             memFigures
}

func massifWindow(m *massif.Microstructure, in massifDistInputs, window time.Duration, tr *tracer, rep *report) (massifPass, error) {
	var p massifPass
	runtime.GC()
	rw := startRuntimeWindow()
	mem := startMemSampler()
	start := time.Now()
	for time.Since(start) < window {
		t0 := time.Now()
		s, err := distSolve(m, in, in.Budget)
		if err != nil {
			rep.attempted += in.Budget
			rep.failed += in.Budget
			rep.fail("massif-dist solve: %v", err)
			continue
		}
		s.root = -1
		if tr != nil {
			s.root = tr.record("job", len(p.solves), -1, t0, t0.Add(s.wall))
		}
		p.solves = append(p.solves, s)
	}
	p.elapsed = time.Since(start)
	p.mem = mem.finish()
	iters := 0
	for _, s := range p.solves {
		iters += s.iters
	}
	p.gcShare, p.allocs = rw.stop(iters)
	if len(p.solves) == 0 {
		return p, fmt.Errorf("massif-dist completed no solve")
	}

	// Every solve of the deterministic problem must run the budget and
	// agree exactly with the first on stress and fabric traffic.
	first := p.solves[0]
	for i, s := range p.solves {
		rep.attempted += in.Budget
		switch {
		case s.iters != in.Budget:
			rep.failed += in.Budget
			rep.fail("massif-dist solve %d ran %d iterations, budget %d", i, s.iters, in.Budget)
		case s.bytes != first.bytes || s.msgs != first.msgs || s.colls != first.colls:
			rep.failed += in.Budget
			rep.fail("massif-dist solve %d moved %d B in %d messages, %d collectives; solve 0 moved %d B, %d, %d",
				i, s.bytes, s.msgs, s.colls, first.bytes, first.msgs, first.colls)
		case math.Float64bits(s.meanXX) != math.Float64bits(first.meanXX):
			rep.failed += in.Budget
			rep.fail("massif-dist solve %d mean σxx %v, solve 0 %v", i, s.meanXX, first.meanXX)
		}
	}
	return p, nil
}

// iterMs is each solve's wall time per iteration, in ms.
func (p massifPass) iterMs() []float64 {
	v := make([]float64, len(p.solves))
	for i, s := range p.solves {
		v[i] = float64(s.wall) / float64(s.iters) / 1e6
	}
	return v
}

func runMassifDist(cfg runConfig) (*report, error) {
	rep := newReport()
	in := genMassifDist(cfg.seed)
	fmt.Printf("inputs N=%d sub=%d far=%d ranks=%d budget=%d iterations sphere r=%g at %v (the problem does not depend on the seed)\n",
		in.N, in.SubSize, in.FarRate, in.Ranks, in.Budget, in.Radius, in.Center)

	var m *massif.Microstructure
	setups, err := timeSetups(func() (err error) {
		if m, err = newMassifProblem(in); err != nil {
			return err
		}
		// The first solve builds its plans cold; one iteration of it is
		// part of set-up.
		_, err = distSolve(m, in, 1)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	p, err := massifWindow(m, in, cfg.window, nil, rep)
	if err != nil {
		return nil, err
	}
	ref, err := massif.SolveReference(m, in.E, massif.Options{Tol: 1e-3, MaxIter: 60})
	if err != nil {
		return nil, err
	}
	refXX := ref.MeanStress()[grid.VXX]
	first := p.solves[0]
	relErr := math.Abs(first.meanXX-refXX) / math.Abs(refXX)
	if relErr > maxStressRelErr {
		rep.fail("massif-dist mean σxx %v is %.3g off the reference %v (bound %g)", first.meanXX, relErr, refXX, maxStressRelErr)
	}

	iters := 0
	for _, s := range p.solves {
		iters += s.iters
	}
	lat := summarize(p.iterMs(), "ms")
	fabric := float64(first.bytes) / float64(first.iters)
	rep.e2e["jobs_per_s"] = float64(iters) / p.elapsed.Seconds()
	rep.e2e["latency_p50_ms"] = lat.P50
	rep.e2e["bytes_per_job"] = fabric
	rep.e2e["rss_mb"] = p.mem.median
	rep.e2e["setup_s"] = median(setups)

	printMetric("jobs_per_s", rep.e2e["jobs_per_s"], "1/s", fmt.Sprintf("(a job is one iteration: %d solves of %d in %.3f s)", len(p.solves), in.Budget, p.elapsed.Seconds()))
	printLatencies(lat.P50, lat.P90, lat)
	printMetric("iter_s", lat.P50/1e3, "s", "(median solve wall time per iteration)")
	printMetric("stress_rel_err", relErr, "ratio", fmt.Sprintf("(mean σxx %.6g vs SolveReference %.6g after %d iterations; bound %g)", first.meanXX, refXX, ref.Iterations, maxStressRelErr))
	printMetric("fabric_bytes_per_iter", fabric, "B", fmt.Sprintf("(reported as bytes_per_job: cluster.Stats bytes %d over %d iterations, identical in every solve)", first.bytes, first.iters))
	printMetric("error_rate", float64(rep.failed)/float64(rep.attempted), "ratio", fmt.Sprintf("(%d of %d iterations)", rep.failed, rep.attempted))
	printMemory(p.mem)
	printSetup(setups)

	if !cfg.traced {
		return rep, nil
	}
	rep.layers["runtime.gc_cpu_share"] = p.gcShare
	rep.layers["runtime.alloc_bytes_per_op"] = p.allocs
	rep.layers["cluster.messages_per_iter"] = float64(first.msgs) / float64(first.iters)
	rep.layers["cluster.collectives_per_iter"] = float64(first.colls) / float64(first.iters)
	rep.layers["cluster.model_s_per_iter"] = first.simSec / float64(first.iters)
	return rep, massifLedger(cfg, in, m, lat, rep)
}

// massifLedger runs the traced window, then replays a spread of its
// solves as the same solve without the cluster (SolveLowComm) and as
// one all-to-all of the measured per-pair payload per iteration. The
// all-to-all is the solve's only on-path layer measured from outside;
// the remainder is the ranks' local convolutions, the accumulation, the
// all-reduce and the hand-offs between rank goroutines.
func massifLedger(cfg runConfig, in massifDistInputs, m *massif.Microstructure, untraced latencySummary, rep *report) error {
	tr := newTracer()
	p, err := massifWindow(m, in, cfg.window, tr, rep)
	if err != nil {
		return err
	}
	step := (len(p.solves) + massifReplays - 1) / massifReplays
	for i := 0; i < len(p.solves); i += step {
		s := p.solves[i]
		var serial *massif.LowCommResult
		if _, err := tr.call("massif.serial", i, s.root, func() (err error) {
			serial, err = massif.SolveLowComm(m, in.E, lowCommOptions(in, in.Budget))
			return err
		}); err != nil {
			return err
		}
		// The distributed solve must agree with the serial one to the
		// relative 1e-9 that TestDistributedMatchesSerialLowComm holds
		// the strain to; the two differ in the last bits of mean σxx.
		if got := serial.MeanStress()[grid.VXX]; math.Abs(got-s.meanXX) > maxSerialRelDiff*math.Abs(got) {
			rep.fail("massif-dist solve %d mean σxx %v, serial SolveLowComm %v", i, s.meanXX, got)
		}
		payload := make([][]float64, in.Ranks)
		for r := range payload {
			payload[r] = make([]float64, s.a2aPairBytes/8)
		}
		for it := 0; it < s.iters; it++ {
			c, err := cluster.New(in.Ranks, cluster.DefaultParams())
			if err != nil {
				return err
			}
			if _, err := tr.call("cluster.alltoall", i, s.root, func() error {
				return c.Run(func(w *cluster.Worker) error {
					_, err := w.AllToAll(payload)
					return err
				})
			}); err != nil {
				return err
			}
		}
	}
	var refMs []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		ref, err := massif.SolveReference(m, in.E, massif.Options{Tol: 1e-3, MaxIter: 60})
		if err != nil {
			return err
		}
		refMs = append(refMs, float64(time.Since(t0))/float64(ref.Iterations)/1e6)
	}
	rep.layers["massif.reference_iter_ms"] = median(refMs)
	if err := measureFFTLines(in.N, rep.layers); err != nil {
		return err
	}
	fmt.Printf("massif.reference_iter_ms %.4g: the dense-FFT baseline per iteration (not on the low-comm path)\n", median(refMs))

	tr.ledger("massif-dist", "job", float64(in.Budget), []ledgerRow{
		{Metric: "cluster.alltoall_us", Span: "cluster.alltoall", OnPath: true},
		{Metric: "massif.serial_iter_ms", Span: "massif.serial", Note: "reference point: the same iterations in one process, no cluster"},
	}, time.Duration(untraced.P50*1e6*float64(in.Budget)), rep.layers)
	printLayers(rep.layers)
	path, err := tr.write(spanDir, fmt.Sprintf("massif-dist-seed%d.json", cfg.seed))
	if err != nil {
		return err
	}
	fmt.Println("spans written to", path)
	return nil
}
