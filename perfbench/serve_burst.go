package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lowcomm3d/internal/fleet"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/serve"
)

// burstDevices is the serve-burst admission fleet.
func burstDevices() []*gpu.Device { return []*gpu.Device{gpu.V100_16GB(), gpu.V100_16GB()} }

func newBurstEngine(in serveBurstInputs, tr *obs.Trace) (*serve.Engine, error) {
	return serve.New(serve.Options{
		Dim: grid.Cube(in.N), Kernel: benchKernel, FarRate: farRate, Pruned: true,
		Devices: burstDevices(), TenantWeights: in.Weights, Trace: tr,
	})
}

// warmBoxes returns one box per k that no scheduled job uses.
func warmBoxes(in serveBurstInputs) []grid.Box {
	used := map[grid.Box]bool{}
	for _, j := range in.Jobs {
		used[j.Box] = true
	}
	var out []grid.Box
	for _, k := range serveBurstKs {
		for x := 0; ; x++ {
			if b := grid.CubeAt(grid.Point{x, 0, 0}, k); !used[b] {
				out = append(out, b)
				break
			}
		}
	}
	return out
}

// newBurstStack builds the engine and runs one job per k on a box the
// schedule does not use, so the shared FFT plan sets exist before the
// window: the set-up the setup_s metric times.
func newBurstStack(in serveBurstInputs, tr *obs.Trace) (*serve.Engine, error) {
	eng, err := newBurstEngine(in, tr)
	if err != nil {
		return nil, err
	}
	for _, b := range warmBoxes(in) {
		res, err := eng.Submit(context.Background(), "warm-up", b, in.Inputs[b.Size()[0]][0])
		if err != nil {
			eng.Drain()
			return nil, fmt.Errorf("serve-burst warm-up job on %v: %w", b, err)
		}
		res.Release()
	}
	return eng, nil
}

// burstOutcome is one serve-burst job; the goroutine that ran it writes
// it once, and the generator reads it after every job has returned.
type burstOutcome struct {
	latency, late, submit, wait, compute time.Duration
	sampleBytes                          int
	err                                  error
	root                                 int
	digest                               uint64 // set for checked jobs
}

// burstPass is one open-loop window.
type burstPass struct {
	out              []burstOutcome
	elapsed          time.Duration
	planMisses, rejs int64
	gcShare, allocs  float64
	mem              memFigures
}

// openLoop sends every scheduled job at its due time, each from its own
// goroutine (a job that waits does not delay the next arrival), and
// times each from when it was due. With tr non-nil each job is recorded
// as a root span with its generator lateness and queue wait.
func openLoop(eng *serve.Engine, in serveBurstInputs, tr *tracer) burstPass {
	p := burstPass{out: make([]burstOutcome, len(in.Jobs))}
	misses0 := eng.Trace().CounterValue("serve.plan_cache_misses")
	rejs0 := eng.Trace().CounterValue("fleet.placement_rejects")
	runtime.GC()
	rw := startRuntimeWindow()
	mem := startMemSampler()
	var wg sync.WaitGroup
	start := time.Now()
	for i := range in.Jobs {
		due := start.Add(in.Jobs[i].Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			j, o := in.Jobs[i], &p.out[i]
			res, err := eng.Submit(context.Background(), j.Tenant, j.Box, in.Inputs[j.Box.Size()[0]][j.Input])
			end := time.Now()
			o.latency, o.late, o.submit, o.err = end.Sub(due), sent.Sub(due), end.Sub(sent), err
			if err == nil {
				o.wait, o.sampleBytes = res.Wait, res.Stats.SampleBytes
				o.compute = res.Stats.StageA + res.Stats.StageB + res.Stats.StageC
				if j.Check {
					o.digest = digest(res.Output)
				}
				res.Release()
			}
			if tr != nil {
				o.root = tr.record("job", i, -1, due, end)
				tr.record("loadgen.late", i, o.root, due, sent)
				tr.record("serve.queue_wait", i, o.root, sent, sent.Add(o.wait))
			}
		}(i, due, sent)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.mem = mem.finish()
	p.gcShare, p.allocs = rw.stop(len(in.Jobs))
	p.planMisses = eng.Trace().CounterValue("serve.plan_cache_misses") - misses0
	p.rejs = eng.Trace().CounterValue("fleet.placement_rejects") - rejs0
	return p
}

// check counts failed and mismatched jobs into rep; checked jobs are
// compared with an untimed in-process run.
func (p burstPass) check(in serveBurstInputs, kit *convKit, rep *report) (completed, checked int, err error) {
	for i, o := range p.out {
		rep.attempted++
		j := in.Jobs[i]
		if o.err != nil {
			rep.failed++
			rep.fail("serve-burst job %d on %v: %v", i, j.Box, o.err)
			continue
		}
		if j.Check {
			ref, err := kit.reference(j.Box, in.Inputs[j.Box.Size()[0]][j.Input])
			if err != nil {
				return 0, 0, err
			}
			checked++
			if o.digest != digest(ref) {
				rep.failed++
				rep.fail("serve-burst job %d on %v: result differs from the in-process run", i, j.Box)
				continue
			}
		}
		completed++
	}
	return completed, checked, nil
}

func (p burstPass) series(f func(burstOutcome) time.Duration) []float64 {
	var v []float64
	for _, o := range p.out {
		if o.err == nil {
			v = append(v, float64(f(o)))
		}
	}
	return v
}

// meanGap is the mean time between scheduled arrivals. A job sent more
// than one gap late has merged with a later arrival: the schedule's shape
// is lost there, and when that happens to more than maxLateShare of the
// jobs the run is flagged as no longer open loop. Latency is timed from
// the due time either way, so a late send is still charged to the job.
const (
	meanGap      = time.Second / serveBurstRate
	maxLateShare = 0.01
)

func runServeBurst(cfg runConfig) (*report, error) {
	rep := newReport()
	in := genServeBurst(cfg.seed, cfg.window.Seconds(), serveBurstRate)
	kit, err := newConvKit(in.N, serveBurstKs)
	if err != nil {
		return nil, err
	}
	fmt.Printf("inputs jobs=%d rate=%d/s N=%d k=%v far=%d tenants=%v devices=%d\n",
		len(in.Jobs), serveBurstRate, in.N, serveBurstKs, farRate, in.Weights, len(burstDevices()))

	var eng *serve.Engine
	setups, err := timeSetups(func() (err error) {
		eng, err = newBurstStack(in, obs.New())
		return err
	}, func() { eng.Drain() })
	if err != nil {
		return nil, err
	}
	defer eng.Drain()

	p := openLoop(eng, in, nil)
	completed, checked, err := p.check(in, kit, rep)
	if err != nil {
		return nil, err
	}
	if completed == 0 {
		return nil, fmt.Errorf("serve-burst completed no job")
	}
	lat := summarize(scale(p.series(func(o burstOutcome) time.Duration { return o.latency }), 1e6), "ms")
	late := summarize(scale(p.series(func(o burstOutcome) time.Duration { return o.late }), 1e3), "us")
	bytes := 0.0
	for _, o := range p.out {
		bytes += float64(o.sampleBytes)
	}
	var ss []sliceSample
	for i, o := range p.out {
		if o.err == nil {
			ss = append(ss, sliceSample{at: in.Jobs[i].Due, value: float64(o.latency) / 1e6})
		}
	}
	_, p50, p90 := sliced(ss, cfg.window)
	rep.e2e["jobs_per_s"] = float64(completed) / p.elapsed.Seconds()
	rep.e2e["latency_p50_ms"] = p50
	rep.e2e["bytes_per_job"] = bytes / float64(completed)
	rep.e2e["rss_mb"] = p.mem.median
	rep.e2e["setup_s"] = median(setups)

	printMetric("jobs_per_s", rep.e2e["jobs_per_s"], "1/s", fmt.Sprintf("(%d verified jobs in %.3f s, open loop at %d/s)", completed, p.elapsed.Seconds(), serveBurstRate))
	printLatencies(p50, p90, lat)
	printMetric("result_bytes_per_job", rep.e2e["bytes_per_job"], "B", "(reported as bytes_per_job: the compressed result, samples + octree metadata, conv.Stats.SampleBytes)")
	printMetric("error_rate", float64(rep.failed)/float64(rep.attempted), "ratio", fmt.Sprintf("(%d of %d failed, rejected or mismatched)", rep.failed, rep.attempted))
	printMemory(p.mem)
	printSetup(setups)
	fmt.Printf("check sampled results byte-identical to in-process conv.Local: %d checked\n", checked)
	wait := summarize(scale(p.series(func(o burstOutcome) time.Duration { return o.wait }), 1e6), "ms")
	compute := summarize(scale(p.series(func(o burstOutcome) time.Duration { return o.compute }), 1e6), "ms")
	fmt.Printf("breakdown queue wait p50=%.4g p90=%.4g ms; compute p50=%.4g p90=%.4g ms\n", wait.P50, wait.P90, compute.P50, compute.P90)
	lateJobs := 0
	for _, o := range p.out {
		if o.late > meanGap {
			lateJobs++
		}
	}
	lateShare := float64(lateJobs) / float64(len(p.out))
	openLoopHeld := lateShare <= maxLateShare
	fmt.Printf("loadgen lateness p50=%.4g us p99=%.4g us max=%.4g us; %.2f%% of jobs sent over one gap (%v) late; open loop held: %v\n",
		late.P50, late.P99, late.Max, 100*lateShare, meanGap, openLoopHeld)
	if !openLoopHeld {
		fmt.Println("WARNING: the generator fell behind its schedule; arrivals bunched, so this run did not offer the scheduled open-loop load")
	}

	if !cfg.traced {
		return rep, nil
	}
	rep.layers["runtime.gc_cpu_share"] = p.gcShare
	rep.layers["runtime.alloc_bytes_per_op"] = p.allocs
	rep.layers["serve.plan_cache_misses"] = float64(p.planMisses) / float64(len(in.Jobs))
	rep.layers["fleet.placement_rejects"] = float64(p.rejs)
	return rep, serveBurstLedger(cfg, in, eng, kit, lat, rep)
}

func scale(v []float64, div float64) []float64 {
	for i := range v {
		v[i] /= div
	}
	return v
}

// serveBurstLedger runs the traced window, then replays a spread of its
// jobs' placement, octree, pipeline and compute layers one at a time.
func serveBurstLedger(cfg runConfig, in serveBurstInputs, eng *serve.Engine, kit *convKit, untraced latencySummary, rep *report) error {
	tr := newTracer()
	p := openLoop(eng, in, tr)
	if _, _, err := p.check(in, kit, rep); err != nil {
		return err
	}
	sched, err := fleet.NewScheduler(fleet.Options{Devices: burstDevices(), N: in.N, FarRate: farRate})
	if err != nil {
		return err
	}
	defer sched.Close()

	var cs convSamples
	var submit, overhead []float64
	idx := make([]int, 0, len(p.out))
	for i, o := range p.out {
		if o.err == nil {
			idx = append(idx, i)
			submit = append(submit, float64(o.submit)/1e3)
			overhead = append(overhead, float64(o.submit-o.wait-o.compute)/1e3)
		}
	}
	step := (len(idx) + maxReplays - 1) / maxReplays
	for n := 0; n < len(idx); n += step {
		i := idx[n]
		j, o := in.Jobs[i], p.out[i]
		k := j.Box.Size()[0]
		fp := sched.Footprint(k)
		if _, err := tr.call("fleet.place", i, o.root, func() error {
			di, err := sched.PlaceWeighted(k, fp, 0, float64(in.Weights[j.Tenant]), nil)
			if err == nil {
				sched.Release(di, fp)
			}
			return err
		}); err != nil {
			return err
		}
		_, st, run, err := kit.replay(tr, i, o.root, j.Box, in.Inputs[k][j.Input])
		if err != nil {
			return err
		}
		cs.add(in.N, k, st, run)
	}
	cs.fill(rep.layers)
	rep.layers["serve.submit_us"] = median(submit)
	rep.layers["serve.overhead_us"] = median(overhead)
	if err := measureFFTLines(in.N, rep.layers); err != nil {
		return err
	}

	tr.ledger("serve-burst", "job", 1, []ledgerRow{
		{Metric: "loadgen.late_us", Span: "loadgen.late", OnPath: true},
		{Metric: "serve.queue_wait_us", Span: "serve.queue_wait", OnPath: true},
		{Metric: "fleet.place_us", Span: "fleet.place", OnPath: true},
		{Metric: "octree.build_us", Span: "octree.build", OnPath: true},
		{Metric: "conv.pipeline_build_us", Span: "conv.pipeline_build", OnPath: true},
		{Metric: "conv.run_us", Span: "conv.run", OnPath: true},
	}, time.Duration(untraced.P50*1e6), rep.layers)
	printLayers(rep.layers)
	path, err := tr.write(spanDir, fmt.Sprintf("serve-burst-seed%d.json", cfg.seed))
	if err != nil {
		return err
	}
	fmt.Println("spans written to", path)
	return nil
}

// measureCapacity saturates the serve-burst engine from a closed loop of
// many submitters for the window and returns completed jobs per second:
// the capacity the fixed serve-burst rate is derived from.
func measureCapacity(seed int64, window time.Duration) (float64, error) {
	in := genServeBurst(seed, 60, serveBurstRate) // far more distinct boxes than the window uses
	eng, err := newBurstStack(in, obs.New())
	if err != nil {
		return 0, err
	}
	defer eng.Drain()
	const submitters = 8
	var mu sync.Mutex
	next, done := 0, 0
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				mu.Lock()
				j := in.Jobs[next%len(in.Jobs)]
				next++
				mu.Unlock()
				res, err := eng.Submit(context.Background(), j.Tenant, j.Box, in.Inputs[j.Box.Size()[0]][j.Input])
				if err != nil {
					continue
				}
				res.Release()
				mu.Lock()
				done++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(done) / time.Since(start).Seconds(), nil
}
