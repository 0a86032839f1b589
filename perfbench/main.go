// Command perfbench is the repository benchmark: one process that builds its
// inputs from a seed, drives the scheduler stack through one named workload
// for a fixed time, checks every output, and prints one JSON result line.
//
//	perfbench --workload flow-ours|css-table|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics (tracing off); with
// --trace 1 it makes one extra traced run and reports the per-layer metrics.
// Every layer is measured from outside, by timing calls into its public
// functions and reading the counters it already exposes. The metric names,
// units and directions below must match BENCHMARK.json; the self-test in
// bench_test.go enforces that.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"iterskew/internal/bench"
	"iterskew/internal/netlist"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports all of them, so each is defined per workload through that
// workload's unit operation ("op"): one §V flow on flow-ours, one Table-I CSS
// sweep on css-table, one scheduling job on serve-mix. Slack figures are
// violation magnitudes in percent of the clock period, summed over the
// workload's scheduling runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"early_wns_viol", "%T", "lower"},
	{"early_tns_viol", "%T", "lower"},
	{"late_wns_viol", "%T", "lower"},
	{"late_tns_viol", "%T", "lower"},
	{"hpwl_final_pct", "%", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the traced run's per-layer metrics. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"bench.generate_s", "s", "lower"},
	{"netlist.clone_s", "s", "lower"},
	{"timing.compile_s", "s", "lower"},
	{"timing.updates", "count", "lower"},
	{"timing.fwd_pins", "count", "lower"},
	{"timing.bwd_pins", "count", "lower"},
	{"timing.dirty_cells", "count", "lower"},
	{"timing.extract_arc_visits", "count", "lower"},
	{"timing.probe.update_comb_us", "us", "lower"},
	{"timing.probe.update_comb_pins", "count", "lower"},
	{"timing.probe.update_lcb_us", "us", "lower"},
	{"timing.probe.update_lcb_pins", "count", "lower"},
	{"timing.probe.update_latency_us", "us", "lower"},
	{"timing.probe.update_latency_pins", "count", "lower"},
	{"timing.probe.wnstns_us", "us", "lower"},
	{"timing.probe.wnstns_endpoints", "count", "lower"},
	{"timing.probe.violated_us", "us", "lower"},
	{"timing.probe.violated_endpoints", "count", "lower"},
	{"core.s", "s", "lower"},
	{"core.rounds", "count", "lower"},
	{"core.edges", "count", "lower"},
	{"core.clamps_eq11", "count", "lower"},
	{"core.cycles_frozen", "count", "lower"},
	{"core.edge_yield", "ratio", "higher"},
	{"iccss.s", "s", "lower"},
	{"iccss.rounds", "count", "lower"},
	{"iccss.edges", "count", "lower"},
	{"iccss.constraint_exts", "count", "lower"},
	{"iccss.critical_verts", "count", "lower"},
	{"fpm.s", "s", "lower"},
	{"fpm.edges", "count", "lower"},
	{"opt.reconnect_s", "s", "lower"},
	{"opt.reconnect_attempted", "count", "lower"},
	{"opt.reconnect_kept", "count", "higher"},
	{"opt.reconnect_reverted", "count", "lower"},
	{"opt.move_s", "s", "lower"},
	{"opt.move_kept", "count", "higher"},
	{"opt.move_reverted", "count", "lower"},
	{"opt.move_passes", "count", "lower"},
	{"opt.move_yield", "ratio", "higher"},
	{"eval.measure_ms", "ms", "lower"},
	{"flow.self_s", "s", "lower"},
	{"flow.span_coverage_pct", "%", "higher"},
	{"engine.run_core_ms", "ms", "lower"},
	{"engine.run_iccss_ms", "ms", "lower"},
	{"engine.run_fpm_ms", "ms", "lower"},
	{"engine.run_mcmm_ms", "ms", "lower"},
	{"serve.sched_ms", "ms", "lower"},
	{"serve.wall_ms", "ms", "lower"},
	{"serve.queue_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.response_kb", "kB", "lower"},
	{"serve.upload_ms", "ms", "lower"},
	{"serve.reupload_ms", "ms", "lower"},
	{"serve.retries_429", "count", "lower"},
	{"serve.stream_lines", "count", "lower"},
	{"serve.mcmm_ms", "ms", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every design scale: 1 for the benchmark, tiny in the
	// self-test.
	scale float64
	// spans is where the traced run writes its spans.
	spans string
}

// outcome is what a workload hands back: the metrics it measured and the
// tally of operations and failed checks.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failures  []string
	notes     []string // human-readable summary lines
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// op counts one attempted operation.
func (o *outcome) op() { o.attempted++ }

// fail records one failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// check records a failure unless ok holds.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.fail(format, args...)
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"flow-ours": runFlowOurs,
	"css-table": runCSSTable,
	"serve-mix": runServeMix,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the JSON result line: every metric of the run's kind,
// with 0 for per-layer metrics the workload does not exercise.
func result(cfg config, o *outcome) (resultLine, error) {
	defs, fill := endToEnd, false
	if cfg.trace {
		defs, fill = perLayer, true
	}
	out := resultLine{Attempted: o.attempted, Failed: len(o.failures), Metrics: map[string]metricOut{}}
	for _, m := range defs {
		v, ok := o.metrics[m.Name]
		if !ok && !fill {
			return out, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("workload %s: metric %s is %v", cfg.workload, m.Name, v)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("workload %s attempted no operation", cfg.workload)
	}
	out.Correct = out.Failed == 0
	return out, nil
}

func main() {
	cfg := config{scale: 1}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: flow-ours, css-table or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 makes the extra traced run and reports per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	flag.Parse()
	cfg.seconds = float64(*seconds)
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	os.Exit(run(cfg, os.Stdout))
}

// run executes one workload and prints the summary and the result line; it
// returns the process exit code.
func run(cfg config, stdout io.Writer) int {
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	o, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range o.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL: "+f)
	}
	res, err := result(cfg, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printTable(stdout, cfg, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable prints every metric by name with its unit, in BENCHMARK.json
// order.
func printTable(w io.Writer, cfg config, res resultLine) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
}

// --- statistics -------------------------------------------------------------

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and that percentile. A run with fewer than 21 samples cannot
// place ten beyond anything but its lower half, so there the tail has half
// the samples (rounded down, n-1 over 2) beyond it: about the median.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	rank := n - min(10, (n-1)/2) // 1-based; n-rank samples lie beyond it
	return s[rank-1], 100 * float64(rank) / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reports the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timerWorkers is the timer's worker-pool width on every workload.
const timerWorkers = 1

// genDesign generates a Table-I profile at the given scale with the seeded
// clock period.
func genDesign(name string, scale float64, seed int64) (*netlist.Design, error) {
	p, err := bench.Superblue(name, scale)
	if err != nil {
		return nil, err
	}
	d, err := bench.Generate(p)
	if err != nil {
		return nil, err
	}
	d.Period = jitteredPeriod(d.Period, seed)
	return d, nil
}

// jitteredPeriod derives the run's clock period from the profile's: the seed
// moves it uniformly within ±1%. Designs regenerated from other generator
// seeds differ too much in cost (one flow: 8.5–13.5 s over seeds 1–5) for any
// bound the benchmark may set, so the seed varies the timing constraint of a
// fixed Table-I profile instead.
func jitteredPeriod(base float64, seed int64) float64 {
	u := rand.New(rand.NewSource(seed)).Float64()*2 - 1
	return base * (1 + 0.01*u)
}

// setupRepeats is how many times a run sets up, so setup_s is a median.
const setupRepeats = 3

// timeSetups runs setup setupRepeats times and returns the median wall time.
// The caller keeps the last set-up's products.
func timeSetups(setup func() error) (float64, error) {
	var ts []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// sameBits reports whether two float slices are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// violPct is a slack's violation magnitude in percent of the period.
func violPct(slack, period float64) float64 {
	if slack >= 0 {
		return 0
	}
	return -slack / period * 100
}

// --- spans ------------------------------------------------------------------

// span is one timed call into a layer, recorded by the benchmark around the
// call. Parent is -1 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() float64 { return float64(time.Since(tr.t0).Nanoseconds()) / 1e3 }

// do runs f inside a span named name, nested under the innermost open span.
func (tr *tracer) do(name string, f func()) {
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, StartUS: tr.now()})
	tr.open = append(tr.open, id)
	f()
	tr.open = tr.open[:len(tr.open)-1]
	tr.spans[id].EndUS = tr.now()
}

// add records an already-timed span (used by concurrent clients, which do
// not nest).
func (tr *tracer) add(name string, parent int, start, end time.Time) {
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans), Parent: parent, Name: name,
		StartUS: float64(start.Sub(tr.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(tr.t0).Nanoseconds()) / 1e3,
	})
}

// total sums the durations of every span with the given name, in seconds.
func (tr *tracer) total(name string) float64 {
	var s float64
	for _, sp := range tr.spans {
		if sp.Name == name {
			s += sp.EndUS - sp.StartUS
		}
	}
	return s / 1e6
}

// count returns how many spans carry the given name.
func (tr *tracer) count(name string) int {
	n := 0
	for _, sp := range tr.spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// selfTime returns, in seconds, the summed durations of the spans named
// name minus the time their direct children cover.
func (tr *tracer) selfTime(name string) (self, total float64) {
	for _, sp := range tr.spans {
		if sp.Name != name {
			continue
		}
		d := sp.EndUS - sp.StartUS
		total += d
		self += d
		for _, c := range tr.spans {
			if c.Parent == sp.ID {
				self -= c.EndUS - c.StartUS
			}
		}
	}
	return self / 1e6, total / 1e6
}

// write saves the spans as JSON under dir.
func (tr *tracer) write(dir string, cfg config) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(name, data, 0o644)
}
