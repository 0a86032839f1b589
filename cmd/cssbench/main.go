// Command cssbench regenerates Table I of the paper: for each (scaled)
// superblue benchmark it runs the Contest-1st baseline, FPM, Ours-Early,
// IC-CSS+, and Ours, and prints early/late WNS+TNS, CSS/OPT/total runtimes,
// extracted-edge counts, and HPWL increase, followed by the paper's
// aggregate rows (average ratios vs the baseline and the headline
// speedup/edge-reduction comparisons).
//
//	go run ./cmd/cssbench                 # full table at the default scale
//	go run ./cmd/cssbench -scale 0.02    # larger circuits
//	go run ./cmd/cssbench -designs superblue18,superblue5
//	go run ./cmd/cssbench -sweep         # §III-D complexity sweep instead
//	go run ./cmd/cssbench -timeout 50ms  # bound each run; partial results
//
// With -timeout each flow run gets its own wall-clock budget: the schedulers
// stop cooperatively at the deadline and report a consistent partial result,
// so the table still completes (rows carry a [deadline] marker and the -json
// output a "stop_reason" field — the cancel-smoke CI target relies on this).
//
// The -load and -corners modes drive a live iterskewd daemon (the
// serve-smoke, metrics-smoke and mcmm-smoke CI targets); -checktrace
// validates a -trace file (obs-smoke).
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"iterskew"
	"iterskew/internal/obs"
)

func main() {
	scale := flag.Float64("scale", 0.01, "linear shrink on contest flip-flop counts")
	designs := flag.String("designs", "all", "comma-separated design list or 'all'")
	sweep := flag.Bool("sweep", false, "run the O(k·m') complexity sweep (experiment E4) instead of Table I")
	csvPath := flag.String("csv", "", "also write the per-design rows to this CSV file")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool width for batch extraction and incremental propagation")
	jsonPath := flag.String("json", "", "write the Table-I rows (and, with a recorder, the per-phase breakdown) to this JSON file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (load in chrome://tracing or Perfetto)")
	eventsPath := flag.String("events", "", "write per-round JSONL events to this file")
	httpAddr := flag.String("httpaddr", "", "serve net/http/pprof and Prometheus /metrics live counters on this address during the run")
	progress := flag.Bool("progress", false, "print one line per scheduling round to stderr")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per flow run (0 = none): schedulers stop cooperatively and report partial results")
	checkTrace := flag.String("checktrace", "", "validate a trace file written by -trace (round + worker span coverage) and exit")
	serveAddr := flag.String("serveaddr", "", "base URL of a live iterskewd daemon for the -load harness (e.g. http://127.0.0.1:8077)")
	loadN := flag.Int("load", 0, "run the service load harness against -serveaddr with this many concurrent clients, then exit")
	loadJobs := flag.Int("loadjobs", 8, "jobs per client in the -load harness")
	cornersN := flag.Int("corners", 0, "run the multi-corner (MCMM) benchmark with this many corners instead of Table I; with -serveaddr, drive a live iterskewd and verify its corner job against the LP oracle")
	flag.Parse()

	if *checkTrace != "" {
		if err := validateTrace(*checkTrace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var rec *iterskew.Recorder
	if *tracePath != "" || *eventsPath != "" || *httpAddr != "" {
		rec = iterskew.NewRecorder()
	}
	if *tracePath != "" {
		rec.EnableTrace()
	}
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		rec.EnableEvents(f)
	}
	if *httpAddr != "" {
		srv, err := iterskew.StartDebugServer(*httpAddr, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/ (/debug/pprof/, /metrics)\n", srv.Addr)
	}
	var logW io.Writer
	if *progress {
		logW = os.Stderr
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *loadN > 0 {
		if *serveAddr == "" {
			fmt.Fprintln(os.Stderr, "-load requires -serveaddr (a running iterskewd)")
			os.Exit(1)
		}
		if err := runLoad(*serveAddr, *designs, *scale, *loadN, *loadJobs, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *cornersN > 0 {
		if err := runMCMM(*designs, *scale, *cornersN, *workers, *serveAddr, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *sweep {
		runSweep()
		return
	}

	names := iterskew.SuperblueNames()
	if *designs != "all" {
		names = strings.Split(*designs, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}

	// Create the JSON file before the first flow so a bad path fails at
	// once instead of after the whole table has run.
	var jsonF *os.File
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		jsonF = f
	}

	methods := []iterskew.Method{iterskew.Baseline, iterskew.FPM, iterskew.OursEarly, iterskew.ICCSSPlus, iterskew.Ours}

	fmt.Printf("Table I reproduction (scale %g; early in ps, late in ns, runtimes in s)\n\n", *scale)
	fmt.Printf("%-12s %-11s | %9s %10s | %9s %10s | %8s %8s %8s | %9s | %7s\n",
		"Benchmark", "Solution", "E-WNS", "E-TNS", "L-WNS", "L-TNS", "CSS", "OPT", "Total", "#Edges", "HPWL%")

	type agg struct {
		eWNSImp, eTNSImp, lWNSImp, lTNSImp float64
		css, opt, total                    time.Duration
		edges                              int64
		hpwl                               float64
		n                                  int
	}
	aggs := map[iterskew.Method]*agg{}
	for _, m := range methods {
		aggs[m] = &agg{}
	}
	var jrows []rowJSON

	var cw *csv.Writer
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		cw = csv.NewWriter(f)
		defer cw.Flush()
		cw.Write([]string{
			"design", "method", "eWNS_ps", "eTNS_ps", "lWNS_ps", "lTNS_ps",
			"css_s", "opt_s", "total_s", "edges", "hpwl_incr_pct", "rounds",
		})
	}

	for _, name := range names {
		p, err := iterskew.SuperblueProfile(name, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		d, err := iterskew.GenerateBenchmark(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st := d.Stats()
		fmt.Printf("%-12s cells=%d ffs=%d lcbs=%d T=%.0fps\n", name, st.Cells, st.FFs, st.LCBs, d.Period)

		var base *iterskew.FlowReport
		for _, m := range methods {
			rec.SetPhase(name + "/" + m.String())
			cfg := iterskew.FlowConfig{Method: m, Workers: *workers, Recorder: rec, Log: logW}
			var cancel context.CancelFunc
			if *timeout > 0 {
				cfg.Context, cancel = context.WithTimeout(context.Background(), *timeout)
			}
			rep, err := iterskew.RunFlow(d, cfg)
			if cancel != nil {
				cancel()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if len(rep.ConstraintErrs) > 0 {
				fmt.Fprintf(os.Stderr, "%s/%v: CONSTRAINT VIOLATIONS: %v\n", name, m, rep.ConstraintErrs)
			}
			if m == iterskew.Baseline {
				base = rep
			}
			f := rep.Final
			mark := ""
			if rep.StopReason.Interrupted() {
				mark = "  [" + rep.StopReason.String() + "]"
			}
			fmt.Printf("%-12s %-11s | %9.2f %10.2f | %9.3f %10.2f | %8.3f %8.3f %8.3f | %9d | %7.4f%s\n",
				"", m, f.WNSEarly, f.TNSEarly, f.WNSLate/1000, f.TNSLate/1000,
				rep.CSSTime.Seconds(), rep.OptTime.Seconds(), rep.Total.Seconds(),
				rep.ExtractedEdges, rep.HPWLIncrPct, mark)
			if cw != nil {
				cw.Write([]string{
					name, m.String(),
					fmtF(f.WNSEarly), fmtF(f.TNSEarly), fmtF(f.WNSLate), fmtF(f.TNSLate),
					fmtF(rep.CSSTime.Seconds()), fmtF(rep.OptTime.Seconds()), fmtF(rep.Total.Seconds()),
					strconv.FormatInt(rep.ExtractedEdges, 10), fmtF(rep.HPWLIncrPct),
					strconv.Itoa(rep.Rounds),
				})
			}
			if jsonF != nil {
				jrows = append(jrows, rowJSON{
					Design: name, Method: m.String(),
					EWNSps: f.WNSEarly, ETNSps: f.TNSEarly,
					LWNSps: f.WNSLate, LTNSps: f.TNSLate,
					CSSSec: rep.CSSTime.Seconds(), OptSec: rep.OptTime.Seconds(),
					TotalSec: rep.Total.Seconds(), Edges: rep.ExtractedEdges,
					HPWLIncrPct: rep.HPWLIncrPct, Rounds: rep.Rounds,
					StopReason: rep.StopReason.String(),
				})
			}

			a := aggs[m]
			a.eWNSImp += imp(base.Final.WNSEarly, f.WNSEarly)
			a.eTNSImp += imp(base.Final.TNSEarly, f.TNSEarly)
			a.lWNSImp += imp(base.Final.WNSLate, f.WNSLate)
			a.lTNSImp += imp(base.Final.TNSLate, f.TNSLate)
			a.css += rep.CSSTime
			a.opt += rep.OptTime
			a.total += rep.Total
			a.edges += rep.ExtractedEdges
			a.hpwl += rep.HPWLIncrPct
			a.n++
		}
		fmt.Println()
	}

	fmt.Println("Avg. ratio (improvement vs Contest-1st input):")
	for _, m := range methods[1:] {
		a := aggs[m]
		n := float64(a.n)
		fmt.Printf("%-11s | E-WNS %+7.2f%%  E-TNS %+7.2f%% | L-WNS %+6.2f%%  L-TNS %+6.2f%% | css=%8.3fs opt=%8.3fs total=%8.3fs | edges=%9d | HPWL %+0.4f%%\n",
			m, a.eWNSImp/n, a.eTNSImp/n, a.lWNSImp/n, a.lTNSImp/n,
			a.css.Seconds(), a.opt.Seconds(), a.total.Seconds(), a.edges, a.hpwl/n)
	}

	ic, ours, fpm, oursE := aggs[iterskew.ICCSSPlus], aggs[iterskew.Ours], aggs[iterskew.FPM], aggs[iterskew.OursEarly]
	fmt.Println("\nHeadline comparisons (paper: CSS 49.11x, edges -90.05%, total vs IC-CSS+ 11.83x, total vs FPM 27.01x):")
	fmt.Printf("  CSS speedup  Ours vs IC-CSS+ : %6.2fx\n", ratio(ic.css.Seconds(), ours.css.Seconds()))
	fmt.Printf("  Edge reduction Ours vs IC-CSS+: %6.2f%%\n", 100*(1-float64(ours.edges)/float64(max64(ic.edges, 1))))
	fmt.Printf("  Total speedup Ours vs IC-CSS+ : %6.2fx\n", ratio(ic.total.Seconds(), ours.total.Seconds()))
	fmt.Printf("  Total speedup Ours-Early vs FPM: %6.2fx\n", ratio(fpm.total.Seconds(), oursE.total.Seconds()))

	if jsonF != nil {
		out := benchJSON{Scale: *scale, Workers: *workers, CPUs: runtime.GOMAXPROCS(0), Rows: jrows}
		if rec != nil {
			out.Phases = rec.Phases()
		}
		if err := writeJSON(jsonF, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d rows)\n", *jsonPath, len(jrows))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rec.WriteTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *tracePath)
	}
}

// rowJSON is one Table-I row in BENCH_cssbench.json.
type rowJSON struct {
	Design      string  `json:"design"`
	Method      string  `json:"method"`
	EWNSps      float64 `json:"ewns_ps"`
	ETNSps      float64 `json:"etns_ps"`
	LWNSps      float64 `json:"lwns_ps"`
	LTNSps      float64 `json:"ltns_ps"`
	CSSSec      float64 `json:"css_s"`
	OptSec      float64 `json:"opt_s"`
	TotalSec    float64 `json:"total_s"`
	Edges       int64   `json:"edges"`
	HPWLIncrPct float64 `json:"hpwl_incr_pct"`
	Rounds      int     `json:"rounds"`
	StopReason  string  `json:"stop_reason"`
}

type benchJSON struct {
	Scale   float64   `json:"scale"`
	Workers int       `json:"workers"`
	CPUs    int       `json:"cpus"`
	Rows    []rowJSON `json:"rows"`
	// Phases is the per-phase wall-time and allocation breakdown recorded
	// during the table runs (present when -trace/-events/-httpaddr enabled
	// a recorder).
	Phases []iterskew.PhaseStat `json:"phases,omitempty"`
	// Service is the -load harness's measurement of a live iterskewd daemon.
	Service *serviceJSON `json:"service,omitempty"`

	// MCMM is the -corners multi-corner benchmark/smoke block.
	MCMM *mcmmJSON `json:"mcmm,omitempty"`
}

// sameSchedule compares two target-latency schedules bit-for-bit.
func sameSchedule(a, b map[iterskew.CellID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// writeJSON writes the Table-I rows and the recorder's phase breakdown to
// f, which main created before the first flow ran, and closes it.
func writeJSON(f *os.File, out benchJSON) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateTrace decodes a -trace output file and asserts the coverage the
// obs-smoke CI target relies on: a well-formed Chrome trace envelope with
// spans for the scheduling rounds and the extraction worker tasks.
func validateTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tf, err := obs.DecodeTrace(f)
	if err != nil {
		return err
	}
	rounds := tf.SpanCount("css.round")
	workers := tf.SpanCount("extract.worker")
	scheds := tf.SpanCount("css.schedule")
	if rounds == 0 || workers == 0 || scheds == 0 {
		return fmt.Errorf("checktrace %s: want >=1 of each span, got css.round=%d extract.worker=%d css.schedule=%d",
			path, rounds, workers, scheds)
	}
	fmt.Printf("%s ok: %d events, css.schedule=%d css.round=%d extract.worker=%d\n",
		path, len(tf.TraceEvents), scheds, rounds, workers)
	return nil
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

func imp(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / abs(before) * 100
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// runSweep measures the §III-D claim: total extraction cost grows as
// O(k·m') for the iterative algorithm, with k (rounds) nearly flat in the
// circuit size, versus the critical-vertex extraction volume of IC-CSS+.
func runSweep() {
	fmt.Printf("%-8s %8s %8s | %6s %10s %12s | %10s %12s\n",
		"scale", "#FFs", "#cells", "k", "ours-edges", "ours-cssT", "ic-edges", "ic-cssT")
	for _, scale := range []float64{0.0025, 0.005, 0.01, 0.02, 0.04} {
		p, err := iterskew.SuperblueProfile("superblue18", scale)
		if err != nil {
			panic(err)
		}
		d, err := iterskew.GenerateBenchmark(p)
		if err != nil {
			panic(err)
		}
		ours, err := iterskew.RunFlow(d, iterskew.FlowConfig{Method: iterskew.Ours})
		if err != nil {
			panic(err)
		}
		ic, err := iterskew.RunFlow(d, iterskew.FlowConfig{Method: iterskew.ICCSSPlus})
		if err != nil {
			panic(err)
		}
		st := d.Stats()
		fmt.Printf("%-8g %8d %8d | %6d %10d %12s | %10d %12s\n",
			scale, st.FFs, st.Cells, ours.Rounds, ours.ExtractedEdges, ours.CSSTime,
			ic.ExtractedEdges, ic.CSSTime)
	}
}
