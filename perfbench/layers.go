package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/wire"
)

// farRate is the far-field sampling rate of every convolution workload.
const farRate = 8

// benchKernel is the frequency-domain kernel of every convolution
// workload.
var benchKernel = green.Gaussian{Sigma: 2}

// convKit runs single convolution jobs in process, outside any engine:
// the untimed reference every served result is checked against, and the
// traced replay of a job's octree, pipeline and compute layers.
type convKit struct {
	dim   grid.Dim3
	pw    conv.Pointwise
	cfg   conv.Config
	plans map[int]*conv.PlanSet
}

// newConvKit matches the serving engine's pipelines: one FFT worker per
// pipeline, pruned transforms, one shared plan set per k.
func newConvKit(n int, ks []int) (*convKit, error) {
	c := &convKit{
		dim:   grid.Cube(n),
		pw:    conv.KernelPointwise(grid.Cube(n), benchKernel),
		cfg:   conv.Config{Workers: 1, Pruned: true},
		plans: map[int]*conv.PlanSet{},
	}
	for _, k := range ks {
		ps, err := conv.NewPlanSet(c.dim, k, c.cfg.Workers, c.cfg.Pruned)
		if err != nil {
			return nil, err
		}
		c.plans[k] = ps
	}
	return c, nil
}

// reference runs one job untimed.
func (c *convKit) reference(box grid.Box, input *grid.Field) (*sample.Compressed, error) {
	tree, err := sample.DefaultPolicy(box, farRate).Tree(c.dim)
	if err != nil {
		return nil, err
	}
	l, err := c.plans[box.Size()[0]].NewLocal(box, tree, c.pw, c.cfg)
	if err != nil {
		return nil, err
	}
	out, _, err := l.Run(input)
	return out, err
}

// replay repeats one job's octree build, pipeline build and compute as
// spans under parent, and returns the output, the compute's stats and
// its duration.
func (c *convKit) replay(tr *tracer, job, parent int, box grid.Box, input *grid.Field) (*sample.Compressed, conv.Stats, time.Duration, error) {
	var tree *octree.Tree
	var l *conv.Local
	var out *sample.Compressed
	var st conv.Stats
	_, err := tr.call("octree.build", job, parent, func() (err error) {
		tree, err = sample.DefaultPolicy(box, farRate).Tree(c.dim)
		return err
	})
	if err != nil {
		return nil, st, 0, err
	}
	_, err = tr.call("conv.pipeline_build", job, parent, func() (err error) {
		l, err = c.plans[box.Size()[0]].NewLocal(box, tree, c.pw, c.cfg)
		return err
	})
	if err != nil {
		return nil, st, 0, err
	}
	run, err := tr.call("conv.run", job, parent, func() (err error) {
		out, st, err = l.RunInto(input, nil)
		return err
	})
	return out, st, run, err
}

// convSamples collects the per-job conv metrics that come from the
// conv.Stats a run returns rather than from spans.
type convSamples struct {
	stageA, stageB, stageC, gflops, peak []float64
}

func (s *convSamples) add(n, k int, st conv.Stats, run time.Duration) {
	s.stageA = append(s.stageA, float64(st.StageA)/1e3)
	s.stageB = append(s.stageB, float64(st.StageB)/1e3)
	s.stageC = append(s.stageC, float64(st.StageC)/1e3)
	s.peak = append(s.peak, float64(st.PeakBytes))
	s.gflops = append(s.gflops, float64(convModelFlops(n, k, st))/run.Seconds()/1e9)
}

func (s *convSamples) fill(layers map[string]float64) {
	layers["conv.stage_a_us"] = median(s.stageA)
	layers["conv.stage_b_us"] = median(s.stageB)
	layers["conv.stage_c_us"] = median(s.stageC)
	layers["conv.model_gflops"] = median(s.gflops)
	layers["conv.peak_bytes"] = median(s.peak)
}

// convModelFlops is the library's flop model of one local convolution
// (the conv.flops_model counter): k forward 2D planes, two length-N
// transforms per pencil, one inverse 2D plane per kept z plane.
func convModelFlops(n, k int, st conv.Stats) int64 {
	perPlane2D := 2 * int64(n) * obs.FFTFlops(n)
	return int64(k)*perPlane2D + int64(st.PencilCount)*2*obs.FFTFlops(n) + int64(st.KeptZPlanes)*perPlane2D
}

// measureFFTLines times fft.Plan.Forward over a batch of length-n lines
// and sets fft.line_gflops to the model rate (obs.FFTFlops per line), the
// median of several repeats. It prints the model operations per byte the
// transform reads and writes beside it.
func measureFFTLines(n int, layers map[string]float64) error {
	plan, err := fft.NewPlan(n)
	if err != nil {
		return err
	}
	const lines = 1024
	src := make([]complex128, lines*n)
	dst := make([]complex128, lines*n)
	for i := range src {
		src[i] = complex(math.Sin(float64(i)), math.Cos(float64(3*i)))
	}
	var rates []float64
	for rep := 0; rep < 7; rep++ {
		start := time.Now()
		batches := 0
		for time.Since(start) < 20*time.Millisecond {
			for l := 0; l < lines; l++ {
				if err := plan.Forward(dst[l*n:(l+1)*n], src[l*n:(l+1)*n]); err != nil {
					return err
				}
			}
			batches++
		}
		flops := float64(batches) * lines * float64(obs.FFTFlops(n))
		rates = append(rates, flops/time.Since(start).Seconds()/1e9)
	}
	layers["fft.line_gflops"] = median(rates)
	fmt.Printf("fft length-%d lines: %.4g GFLOP/s, %.3g model flops per byte read and written\n",
		n, median(rates), float64(obs.FFTFlops(n))/float64(2*16*n))
	return nil
}

// replayFrames repeats the wire layer's framing of one result: every
// chunk's payload framed as a chunk frame plus the closing done frame,
// then read back.
func replayFrames(tr *tracer, job, parent int, chunks []sample.Chunk) error {
	var buf []byte
	tr.call("wire.frame_encode", job, parent, func() error {
		for _, ch := range chunks {
			buf = wire.AppendFrame(buf, wire.FrameChunk, ch.Payload)
		}
		buf = wire.AppendFrame(buf, wire.FrameDone, nil)
		return nil
	})
	_, err := tr.call("wire.frame_decode", job, parent, func() error {
		r := bytes.NewReader(buf)
		for r.Len() > 0 {
			if _, _, err := wire.ReadFrame(r); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// runtimeWindow measures the Go runtime across a timed window.
type runtimeWindow struct {
	samples []metrics.Sample
}

func startRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
	metrics.Read(w.samples)
	return w
}

// stop returns the GC share of the process CPU and the bytes allocated
// per operation since start.
func (w *runtimeWindow) stop(ops int) (gcShare, allocPerOp float64) {
	end := make([]metrics.Sample, len(w.samples))
	for i := range end {
		end[i].Name = w.samples[i].Name
	}
	metrics.Read(end)
	gc := end[0].Value.Float64() - w.samples[0].Value.Float64()
	total := end[1].Value.Float64() - w.samples[1].Value.Float64()
	allocs := float64(end[2].Value.Uint64() - w.samples[2].Value.Uint64())
	if total > 0 {
		gcShare = gc / total
	}
	if ops > 0 {
		allocPerOp = allocs / float64(ops)
	}
	return gcShare, allocPerOp
}

// countingConn counts every byte read from and written to a connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// sameResult reports whether got is byte-identical to want: the same
// octree cells and bit-identical samples, hence the same encoded stream.
func sameResult(got, want *sample.Compressed) error {
	if got == nil || got.Tree == nil {
		return fmt.Errorf("no result")
	}
	if got.Tree.Dim != want.Tree.Dim || len(got.Tree.Cells) != len(want.Tree.Cells) {
		return fmt.Errorf("octree %v/%d cells, want %v/%d", got.Tree.Dim, len(got.Tree.Cells), want.Tree.Dim, len(want.Tree.Cells))
	}
	for i, c := range want.Tree.Cells {
		if got.Tree.Cells[i] != c {
			return fmt.Errorf("octree cell %d is %v, want %v", i, got.Tree.Cells[i], c)
		}
	}
	if len(got.Samples) != len(want.Samples) {
		return fmt.Errorf("%d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i, v := range want.Samples {
		if math.Float64bits(got.Samples[i]) != math.Float64bits(v) {
			return fmt.Errorf("sample %d is %v, want %v", i, got.Samples[i], v)
		}
	}
	return nil
}

// digest hashes a result's octree cells and sample bits (64-bit FNV-1a),
// so a result can be checked after its buffers are recycled: equal
// digests mean byte-identical results up to a 2^-64 collision chance.
func digest(c *sample.Compressed) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(c.Tree.Cells)))
	for _, cell := range c.Tree.Cells {
		for axis := 0; axis < 3; axis++ {
			put(uint64(cell.Box.Lo[axis]))
			put(uint64(cell.Box.Hi[axis]))
		}
		put(uint64(cell.Rate))
	}
	put(uint64(len(c.Samples)))
	for _, v := range c.Samples {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// memSampler samples the process's resident set every memPeriod during
// a timed window.
type memSampler struct {
	stop, done chan struct{}
	samples    []float64 // MiB
}

const memPeriod = 100 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(memPeriod)
		defer t.Stop()
		for {
			if v, ok := residentMiB(); ok {
				m.samples = append(m.samples, v)
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// memFigures are a window's resident-set figures, MiB.
type memFigures struct {
	median float64 // median of the window's samples
	peak   float64 // process peak at the window's end: set-up and window
}

// finish stops sampling. The median falls back to the peak where /proc
// is unreadable.
func (m *memSampler) finish() memFigures {
	close(m.stop)
	<-m.done
	f := memFigures{median: median(m.samples), peak: peakRSSMiB()}
	if len(m.samples) == 0 {
		f.median = f.peak
	}
	return f
}

// residentMiB reads the current resident set from /proc/self/statm.
func residentMiB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), true
}
