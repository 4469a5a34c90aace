// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the library, checks every output, and prints the
// workload's metrics by name and unit; the last line of its standard
// output is one JSON object with the result.
//
//	go build -o perfbench . && ./perfbench --workload wire-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics of an untraced
// run. With --trace 1 the workload runs untraced and then again with
// benchmark-side spans around every layer call, and the JSON carries the
// per-layer ledger. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names and units (checked by TestBenchmarkJSONMatchesMetrics).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one; README.md gives each workload's definition. The p90
// latency is printed but not listed: its spread between runs reached the
// 25 % bound (README.md, "Noise and spreads").
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"bytes_per_job", "B", "lower"},
	{"rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the ledger metrics of single layers, named
// <module>.<what>. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"wire.frame_encode_us", "us", "lower"},
	{"wire.frame_decode_us", "us", "lower"},
	{"wire.frames_per_job", "count", "lower"},
	{"sample.encode_us", "us", "lower"},
	{"sample.chunk_us", "us", "lower"},
	{"sample.assemble_us", "us", "lower"},
	{"sample.encoded_bytes", "B", "lower"},
	{"sample.samples_per_job", "count", "lower"},
	{"octree.validate_us", "us", "lower"},
	{"octree.cells", "count", "lower"},
	{"octree.build_us", "us", "lower"},
	{"conv.pipeline_build_us", "us", "lower"},
	{"conv.run_us", "us", "lower"},
	{"conv.stage_a_us", "us", "lower"},
	{"conv.stage_b_us", "us", "lower"},
	{"conv.stage_c_us", "us", "lower"},
	{"conv.model_gflops", "GFLOP/s", "higher"},
	{"conv.peak_bytes", "B", "lower"},
	{"fft.line_gflops", "GFLOP/s", "higher"},
	{"serve.submit_us", "us", "lower"},
	{"serve.overhead_us", "us", "lower"},
	{"serve.queue_wait_us", "us", "lower"},
	{"serve.plan_cache_misses", "count", "lower"},
	{"fleet.place_us", "us", "lower"},
	{"fleet.placement_rejects", "count", "lower"},
	{"cluster.messages_per_iter", "count", "lower"},
	{"cluster.collectives_per_iter", "count", "lower"},
	{"cluster.model_s_per_iter", "s", "lower"},
	{"cluster.alltoall_us", "us", "lower"},
	{"massif.serial_iter_ms", "ms", "lower"},
	{"massif.reference_iter_ms", "ms", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"loadgen.late_us", "us", "lower"},
	{"ledger.unattributed_us", "us", "lower"},
}

// Each workload builds its stack at least setupReps times and for at
// least setupSpan; setup_s is the median build, and the last build is
// the one measured. Spreading the builds over seconds keeps a short stall
// of a shared machine from moving the median: nine builds of wire-small's
// 30 ms stack take only a third of a second.
const (
	setupReps = 9
	setupSpan = 2 * time.Second
)

// timeSetups times build until it has run setupReps times and setupSpan
// has passed and returns each build's seconds. Before every build but the
// first, teardown (when not nil) releases the previous one, untimed, and
// a collection gives each build the same heap.
func timeSetups(build func() error, teardown func()) ([]float64, error) {
	var setups []float64
	start := time.Now()
	for len(setups) < setupReps || time.Since(start) < setupSpan {
		if len(setups) > 0 && teardown != nil {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, nil
}

// printSetup prints setup_s, the median of the builds, and their range.
func printSetup(setups []float64) {
	s := sortedCopy(setups)
	printMetric("setup_s", median(s), "s", fmt.Sprintf("(median of %d set-ups over at least %v; min %.4g, p90 %.4g, max %.4g)",
		len(s), setupSpan, s[0], percentile(s, 90), s[len(s)-1]))
}

// spanDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/spans"

// runConfig is one invocation's settings.
type runConfig struct {
	seed   int64
	window time.Duration
	traced bool
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	failures          []string // failed output checks, one line each
	e2e               map[string]float64
	layers            map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"wire-small":  runWireSmall,
	"serve-burst": runServeBurst,
	"massif-dist": runMassifDist,
}

func main() {
	name := flag.String("workload", "", "workload: wire-small, serve-burst or massif-dist")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: also run traced and report the per-layer ledger")
	commit := flag.String("commit", "unknown", "commit the program was built from")
	capacity := flag.Bool("capacity", false, "with serve-burst: measure the engine's saturated throughput for --seconds and exit")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (*capacity && *name != "serve-burst") {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload wire-small|serve-burst|massif-dist --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *capacity {
		c, err := measureCapacity(*seed, time.Duration(*seconds)*time.Second)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("serve-burst capacity %.4g jobs/s (closed loop, 8 submitters, %d s)\n", c, *seconds)
		return
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), *commit)

	// A traced run measures for the same total time: half of it untraced,
	// for the end-to-end medians the tracing overhead is taken against,
	// and half traced.
	window := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		window /= 2
	}
	rep, err := run(runConfig{seed: *seed, window: window, traced: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Println("check FAILED:", f)
	}
	defs, values := endToEnd, rep.e2e
	if *trace == 1 {
		defs, values = perLayer, rep.layers
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct: len(rep.failures) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]map[string]any{},
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", d.Name, v)
			os.Exit(1)
		}
		out.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printMetric prints one named metric with its unit and a note.
func printMetric(name string, v float64, unit, note string) {
	fmt.Printf("metric %-28s %14.6g %-8s %s\n", name, v, unit, note)
}

// printLatencies prints the gated median and p90, then the whole
// window's distribution: its median, p90, the highest percentile with at
// least minTail samples beyond it, and the sample count.
func printLatencies(p50, p90 float64, all latencySummary) {
	top := "no percentile has 10 samples beyond it"
	if all.TopP > 0 {
		top = fmt.Sprintf("p%g=%.4g %s", all.TopP, all.TopVal, all.Unit)
	}
	printMetric("latency_p50_ms", p50, "ms", "")
	printMetric("latency_p90_ms", p90, "ms", "(printed, not in BENCHMARK.json: too noisy to bound)")
	fmt.Printf("latency whole window: n=%d p50=%.4g p90=%.4g %s; highest percentile with %d samples beyond it: %s\n",
		all.N, all.P50, all.P90, all.Unit, minTail, top)
}

// printMemory prints the gated median resident set and the peak.
func printMemory(m memFigures) {
	printMetric("rss_mb", m.median, "MiB", fmt.Sprintf("(median resident set over the window, sampled every %v)", memPeriod))
	printMetric("peak_rss_mb", m.peak, "MiB", "(process peak through the window's end, set-up included)")
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel names the processor, or "unknown" where /proc is unreadable.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
