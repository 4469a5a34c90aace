package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-side timing around a call into the library.
// Spans of one job share Job; Parent is the ID of the span that caused
// this one, -1 for a job's root span.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Job     int     `json:"job"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps a traced run's spans in memory until the run ends. It is
// safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, job, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		StartUS: float64(start.Sub(t.epoch)) / 1e3, EndUS: float64(end.Sub(t.epoch)) / 1e3,
	})
	return id
}

// call times fn as a span named name and returns its duration.
func (t *tracer) call(name string, job, parent int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.record(name, job, parent, start, end)
	return end.Sub(start), err
}

// perJob sums the durations of the spans named name, per job.
func (t *tracer) perJob(name string) map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Job] += time.Duration((s.EndUS - s.StartUS) * 1e3)
		}
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// ledgerRow is one timed layer of a workload's ledger.
type ledgerRow struct {
	Metric string // per-layer metric the row reports
	Span   string // span name the durations come from
	OnPath bool   // the job's result waits for it; counted in the attributed sum
	Note   string // where the row sits when it is not on the path
}

// unitScale converts a duration to a per-layer metric's unit.
func unitScale(metric string) float64 {
	for _, d := range perLayer {
		if d.Name == metric && d.Unit == "ms" {
			return 1e6
		}
	}
	return 1e3
}

// ledger fills layers with each row's median per-job duration and the
// median unattributed remainder of the root span named root, and prints
// the table: each layer's median, its share of the traced end-to-end
// median, and the remainder as its own row. A job made of per units (a
// solve of several iterations) reports metric values per unit. The
// untracedP50 is the untraced half's median of the same end-to-end
// timing; the difference is the tracing overhead.
func (t *tracer) ledger(workload, root string, per float64, rows []ledgerRow, untracedP50 time.Duration, layers map[string]float64) {
	e2e := t.perJob(root)
	var e2eAll []float64
	for _, d := range e2e {
		e2eAll = append(e2eAll, float64(d))
	}
	e2eMed := median(e2eAll)
	overhead := (e2eMed - float64(untracedP50)) / float64(untracedP50)
	fmt.Printf("ledger %s: %d traced jobs, traced %s median %.4g ms, untraced median %.4g ms, tracing overhead %+.1f%%\n",
		workload, len(e2e), root, e2eMed/1e6, float64(untracedP50)/1e6, 100*overhead)
	fmt.Printf("ledger %-28s %12s %8s  %s\n", "layer", "median", "share", "path")

	// The remainder is taken over the jobs every on-path row measured
	// (the replayed ones), so each job's rows and root come from it alone.
	remainder := map[int]time.Duration{}
	for job, d := range e2e {
		remainder[job] = d
	}
	for _, r := range rows {
		byJob := t.perJob(r.Span)
		var v []float64
		for _, d := range byJob {
			v = append(v, float64(d))
		}
		if r.OnPath {
			for job := range remainder {
				if d, ok := byJob[job]; ok {
					remainder[job] -= d
				} else {
					delete(remainder, job)
				}
			}
		}
		med := median(v)
		layers[r.Metric] = med / per / unitScale(r.Metric)
		where := "on path"
		if !r.OnPath {
			where = r.Note
		}
		fmt.Printf("ledger %-28s %12.5g %7.1f%%  %s\n", r.Metric, layers[r.Metric], 100*med/e2eMed, where)
	}
	var rem []float64
	for _, d := range remainder {
		rem = append(rem, float64(d))
	}
	layers["ledger.unattributed_us"] = median(rem) / per / 1e3
	fmt.Printf("ledger %-28s %12.5g %7.1f%%  %s\n", "ledger.unattributed_us", layers["ledger.unattributed_us"], 100*median(rem)/e2eMed,
		fmt.Sprintf("end to end minus the on-path rows, per replayed job (%d jobs)", len(rem)))
}

// printLayers prints every per-layer metric the workload set, in the
// order BENCHMARK.json lists them.
func printLayers(layers map[string]float64) {
	for _, d := range perLayer {
		if v, ok := layers[d.Name]; ok {
			printMetric(d.Name, v, d.Unit, "")
		}
	}
}
