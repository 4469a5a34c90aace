package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/serve"
	"lowcomm3d/internal/wire"
)

// wireStack is the wire-small system: a serve.Engine behind a
// wire.Server on loopback TCP, and one wire.Client per tenant dialing
// through a byte-counting connection.
type wireStack struct {
	eng          *serve.Engine
	engTr, srvTr *obs.Trace
	srv          *wire.Server
	clients      []*wire.Client
	sock         atomic.Int64 // bytes read + written on every client socket
}

func newWireEngine(in wireSmallInputs, tr *obs.Trace) (*serve.Engine, error) {
	return serve.New(serve.Options{
		Dim: grid.Cube(in.N), Kernel: benchKernel, FarRate: farRate, Pruned: true, Trace: tr,
	})
}

// newWireStack builds the stack and runs one job per box through it, so
// every pipeline the timed window uses is built: the set-up the
// setup_s metric times.
func newWireStack(in wireSmallInputs) (*wireStack, error) {
	s := &wireStack{engTr: obs.New(), srvTr: obs.New()}
	eng, err := newWireEngine(in, s.engTr)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Drain()
		return nil, err
	}
	s.srv = wire.NewServer(eng, ln, wire.ServerOptions{Trace: s.srvTr})
	addr := s.srv.Addr().String()
	for range in.Tenants {
		s.clients = append(s.clients, wire.NewClient(wire.ClientOptions{Dial: func() (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: conn, n: &s.sock}, nil
		}}))
	}
	for i, b := range in.Boxes {
		c := i % len(s.clients)
		if _, err := s.clients[c].Submit(context.Background(), in.Tenants[c], b, in.Inputs[i]); err != nil {
			s.close()
			return nil, fmt.Errorf("wire-small warm-up job on %v: %w", b, err)
		}
	}
	return s, nil
}

func (s *wireStack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.srv.Close()
	s.eng.Drain()
}

// wireJob is one completed (or failed) wire-small job.
type wireJob struct {
	id, root, box, client int
	latency               time.Duration
	end                   time.Duration // completion, from the window's start
}

// wirePass is one timed closed-loop window.
type wirePass struct {
	jobs                 []wireJob
	attempted, failed    int
	elapsed              time.Duration
	sockBytes            int64
	chunkBytes, chunks   int64 // server counters over the window
	done, planMisses     int64
	gcShare, allocsPerOp float64
	mem                  memFigures
}

// closedLoop runs every client back to back for the window: a client
// sends its next job when its previous one returns, cycling the boxes
// from its own starting offset. Every result is checked against refs.
// With tr non-nil each job's Submit is recorded as a root span.
func (s *wireStack) closedLoop(in wireSmallInputs, refs []*sample.Compressed, window time.Duration, tr *tracer, rep *report) wirePass {
	var p wirePass
	sock0 := s.sock.Load()
	chunkBytes0 := s.srvTr.CounterValue("wire.chunk_bytes_sent")
	chunks0 := s.srvTr.CounterValue("wire.chunks_sent")
	done0 := s.srvTr.CounterValue("wire.jobs_completed")
	misses0 := s.engTr.CounterValue("serve.plan_cache_misses")
	runtime.GC()
	rw := startRuntimeWindow()
	mem := startMemSampler()

	var mu sync.Mutex
	var nextID atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := c; time.Since(start) < window; n++ {
				bi := n % len(in.Boxes)
				id := int(nextID.Add(1))
				t0 := time.Now()
				res, err := s.clients[c].Submit(context.Background(), in.Tenants[c], in.Boxes[bi], in.Inputs[bi])
				t1 := time.Now()
				root := -1
				if tr != nil {
					root = tr.record("job", id, -1, t0, t1)
				}
				if err == nil {
					err = sameResult(res, refs[bi])
				}
				mu.Lock()
				p.attempted++
				if err != nil {
					p.failed++
					rep.fail("wire-small job %d on %v: %v", id, in.Boxes[bi], err)
				} else {
					p.jobs = append(p.jobs, wireJob{id: id, root: root, box: bi, client: c, latency: t1.Sub(t0), end: t1.Sub(start)})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.mem = mem.finish()
	p.gcShare, p.allocsPerOp = rw.stop(p.attempted)
	p.sockBytes = s.sock.Load() - sock0
	p.chunkBytes = s.srvTr.CounterValue("wire.chunk_bytes_sent") - chunkBytes0
	p.chunks = s.srvTr.CounterValue("wire.chunks_sent") - chunks0
	p.done = s.srvTr.CounterValue("wire.jobs_completed") - done0
	p.planMisses = s.engTr.CounterValue("serve.plan_cache_misses") - misses0
	return p
}

func (p wirePass) latencies() latencySummary {
	v := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		v[i] = float64(j.latency) / 1e6
	}
	return summarize(v, "ms")
}

func runWireSmall(cfg runConfig) (*report, error) {
	rep := newReport()
	in := genWireSmall(cfg.seed)
	kit, err := newConvKit(in.N, []int{in.K})
	if err != nil {
		return nil, err
	}
	// The untimed in-process references every result must match.
	refs := make([]*sample.Compressed, len(in.Boxes))
	for i, b := range in.Boxes {
		if refs[i], err = kit.reference(b, in.Inputs[i]); err != nil {
			return nil, err
		}
	}
	fmt.Printf("inputs boxes=%v tenants=%v N=%d k=%d far=%d\n", in.Boxes, in.Tenants, in.N, in.K, farRate)

	var st *wireStack
	setups, err := timeSetups(func() (err error) {
		st, err = newWireStack(in)
		return err
	}, func() { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()

	p := st.closedLoop(in, refs, cfg.window, nil, rep)
	n := len(p.jobs)
	if n == 0 {
		return nil, fmt.Errorf("wire-small completed no job")
	}
	if p.sockBytes < p.chunkBytes {
		rep.fail("client sockets carried %d B, less than the %d B of chunks the server reports sending", p.sockBytes, p.chunkBytes)
	}
	rep.attempted, rep.failed = p.attempted, p.failed
	lat := p.latencies()
	var ss []sliceSample
	for _, j := range p.jobs {
		ss = append(ss, sliceSample{at: j.end, value: float64(j.latency) / 1e6})
	}
	rate, p50, p90 := sliced(ss, cfg.window)
	rep.e2e["jobs_per_s"] = rate
	rep.e2e["latency_p50_ms"] = p50
	rep.e2e["bytes_per_job"] = float64(p.sockBytes) / float64(p.attempted)
	rep.e2e["rss_mb"] = p.mem.median
	rep.e2e["setup_s"] = median(setups)

	printMetric("jobs_per_s", rate, "1/s", fmt.Sprintf("(median over %d window slices; whole window %d verified jobs in %.3f s = %.5g/s; closed loop, %d clients)",
		slices, n, p.elapsed.Seconds(), float64(n)/p.elapsed.Seconds(), len(in.Tenants)))
	printLatencies(p50, p90, lat)
	printMetric("wire_bytes_per_job", rep.e2e["bytes_per_job"], "B", fmt.Sprintf("(reported as bytes_per_job: client socket bytes read+written; server sent %d B of chunks)", p.chunkBytes))
	printMetric("error_rate", float64(p.failed)/float64(p.attempted), "ratio", fmt.Sprintf("(%d of %d)", p.failed, p.attempted))
	printMemory(p.mem)
	printSetup(setups)
	fmt.Printf("check results byte-identical to in-process conv.Local: %d of %d\n", n, p.attempted)

	if !cfg.traced {
		return rep, nil
	}
	rep.layers["runtime.gc_cpu_share"] = p.gcShare
	rep.layers["runtime.alloc_bytes_per_op"] = p.allocsPerOp
	rep.layers["serve.plan_cache_misses"] = float64(p.planMisses) / float64(p.attempted)
	rep.layers["wire.frames_per_job"] = float64(p.chunks+p.done) / float64(p.done)
	return rep, wireSmallLedger(cfg, in, st, kit, refs, lat, rep)
}

// maxReplays bounds how many jobs a traced run replays layer by layer.
const maxReplays = 400

// wireSmallLedger runs the traced window and replays a spread of its
// jobs' layer calls, one job at a time on an otherwise idle process.
func wireSmallLedger(cfg runConfig, in wireSmallInputs, st *wireStack, kit *convKit, refs []*sample.Compressed, untraced latencySummary, rep *report) error {
	tr := newTracer()
	p := st.closedLoop(in, refs, cfg.window, tr, rep)
	rep.attempted += p.attempted
	rep.failed += p.failed
	if len(p.jobs) == 0 {
		return fmt.Errorf("traced wire-small run completed no job")
	}
	// The in-process engine the serve layer is replayed on, warmed on
	// every box like the served one.
	eng, err := newWireEngine(in, obs.New())
	if err != nil {
		return err
	}
	defer eng.Drain()
	for i, b := range in.Boxes {
		res, err := eng.Submit(context.Background(), in.Tenants[0], b, in.Inputs[i])
		if err != nil {
			return err
		}
		res.Release()
	}

	var cs convSamples
	var overhead, wait, encoded, samples, cells []float64
	step := (len(p.jobs) + maxReplays - 1) / maxReplays
	for i := 0; i < len(p.jobs); i += step {
		j := p.jobs[i]
		box, input := in.Boxes[j.box], in.Inputs[j.box]
		var res serve.Result
		d, err := tr.call("serve.submit", j.id, j.root, func() (err error) {
			res, err = eng.Submit(context.Background(), in.Tenants[j.client], box, input)
			return err
		})
		if err != nil {
			return err
		}
		overhead = append(overhead, float64(d-res.Wait-res.Stats.StageA-res.Stats.StageB-res.Stats.StageC)/1e3)
		wait = append(wait, float64(res.Wait)/1e3)
		res.Release()

		out, stats, run, err := kit.replay(tr, j.id, j.root, box, input)
		if err != nil {
			return err
		}
		cs.add(in.N, in.K, stats, run)
		var stream []byte
		if _, err := tr.call("sample.encode", j.id, j.root, func() (err error) {
			stream, err = out.EncodeBytes()
			return err
		}); err != nil {
			return err
		}
		var chunks []sample.Chunk
		if _, err := tr.call("sample.chunk", j.id, j.root, func() (err error) {
			chunks, err = sample.ChunkStream(stream, 0, sample.DefaultChunkBytes)
			return err
		}); err != nil {
			return err
		}
		if err := replayFrames(tr, j.id, j.root, chunks); err != nil {
			return err
		}
		t0 := time.Now()
		asm := sample.NewAssembler()
		for _, ch := range chunks {
			if err := asm.Add(ch); err != nil {
				return err
			}
		}
		decoded, err := asm.Compressed()
		asmID := tr.record("sample.assemble", j.id, j.root, t0, time.Now())
		if err != nil {
			return err
		}
		if _, err := tr.call("octree.validate", j.id, asmID, decoded.Tree.Validate); err != nil {
			return err
		}
		if err := sameResult(decoded, refs[j.box]); err != nil {
			rep.fail("wire-small replay of job %d: %v", j.id, err)
		}
		encoded = append(encoded, float64(len(stream)))
		samples = append(samples, float64(len(decoded.Samples)))
		cells = append(cells, float64(len(decoded.Tree.Cells)))
	}
	cs.fill(rep.layers)
	rep.layers["serve.overhead_us"] = median(overhead)
	rep.layers["serve.queue_wait_us"] = median(wait)
	rep.layers["sample.encoded_bytes"] = median(encoded)
	rep.layers["sample.samples_per_job"] = median(samples)
	rep.layers["octree.cells"] = median(cells)
	if err := measureFFTLines(in.N, rep.layers); err != nil {
		return err
	}

	tr.ledger("wire-small", "job", 1, []ledgerRow{
		{Metric: "serve.submit_us", Span: "serve.submit", OnPath: true},
		{Metric: "conv.run_us", Span: "conv.run", Note: "within serve.submit"},
		{Metric: "octree.build_us", Span: "octree.build", Note: "off path: cached in the engine's pipeline"},
		{Metric: "conv.pipeline_build_us", Span: "conv.pipeline_build", Note: "off path: cached in the engine's pipeline"},
		{Metric: "sample.encode_us", Span: "sample.encode", OnPath: true},
		{Metric: "sample.chunk_us", Span: "sample.chunk", OnPath: true},
		{Metric: "wire.frame_encode_us", Span: "wire.frame_encode", OnPath: true},
		{Metric: "wire.frame_decode_us", Span: "wire.frame_decode", OnPath: true},
		{Metric: "sample.assemble_us", Span: "sample.assemble", OnPath: true},
		{Metric: "octree.validate_us", Span: "octree.validate", Note: "within sample.assemble"},
	}, time.Duration(untraced.P50*1e6), rep.layers)
	printLayers(rep.layers)
	path, err := tr.write(spanDir, fmt.Sprintf("wire-small-seed%d.json", cfg.seed))
	if err != nil {
		return err
	}
	fmt.Println("spans written to", path)
	return nil
}
