package main

import (
	"fmt"
	"runtime"
	"time"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/eval"
	"iterskew/internal/flow"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/opt"
	"iterskew/internal/timing"
)

// flowScale is the flow-ours design scale: superblue18 at 0.1 (121k cells,
// 10.4k FFs), the smallest scale at which OPT's real cost shows.
const flowScale = 0.1

// flowFingerprint is everything a flow run reports that must repeat bit for
// bit across runs.
func flowFingerprint(rep *flow.Report) []float64 {
	f := rep.Final
	return []float64{
		f.WNSEarly, f.TNSEarly, f.WNSLate, f.TNSLate, float64(f.ViolEarly), float64(f.ViolLate), f.HPWL,
		rep.HPWLIncrPct, float64(rep.ExtractedEdges), float64(rep.Rounds),
	}
}

// runFlowOurs is the flow-ours workload: the full §V flow (Ours CSS + §IV
// OPT, both stages) via flow.Run, repeated for the measured window.
func runFlowOurs(cfg config) (*outcome, error) {
	o := newOutcome()
	fcfg := flow.Config{Method: flow.Ours, Workers: timerWorkers}
	if cfg.trace {
		return traceFlowOurs(cfg, fcfg, o)
	}
	var d *netlist.Design
	setup, err := timeSetups(func() error {
		var err error
		d, err = genDesign("superblue18", flowScale*cfg.scale, cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	// The first flow is the reference every later flow must reproduce bit
	// for bit; all of them are timed.
	var wall, want []float64
	start := time.Now()
	for len(wall) < 2 || time.Since(start).Seconds() < cfg.seconds {
		runtime.GC()
		o.op()
		t0 := time.Now()
		rep, err := flow.Run(d, fcfg)
		dt := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("flow %d: %w", len(wall), err)
		}
		wall = append(wall, ms(dt))
		o.check(len(rep.ConstraintErrs) == 0, "flow %d: constraint errors %v", len(wall)-1, rep.ConstraintErrs)
		if want == nil {
			want = flowFingerprint(rep)
			o.metrics["early_wns_viol"] = violPct(rep.Final.WNSEarly, d.Period)
			o.metrics["early_tns_viol"] = violPct(rep.Final.TNSEarly, d.Period)
			o.metrics["late_wns_viol"] = violPct(rep.Final.WNSLate, d.Period)
			o.metrics["late_tns_viol"] = violPct(rep.Final.TNSLate, d.Period)
			o.metrics["hpwl_final_pct"] = 100 + rep.HPWLIncrPct
			continue
		}
		o.check(sameBits(flowFingerprint(rep), want), "flow %d: QoR or work counters differ from flow 0", len(wall)-1)
	}
	elapsed := time.Since(start).Seconds()
	tl, pct := tail(wall)
	o.metrics["setup_s"] = setup
	o.metrics["op_p50_ms"] = median(wall)
	o.metrics["op_tail_ms"] = tl
	o.metrics["ops_per_s"] = float64(len(wall)) / elapsed
	o.metrics["peak_rss_mb"] = peakRSSMB()
	o.note("%d flows, tail = p%.1f", len(wall), pct)
	return o, nil
}

// flowSteps is what one decomposed flow run produced: the Report fields the
// flow would return plus every work counter the layers expose.
type flowSteps struct {
	input, final eval.Metrics
	hpwlPct      float64
	edges        int64
	rounds       int
	constraints  []string
	stats        timing.Counters
	coreEdges    int
	recon        opt.ReconnectResult
	move         opt.MoveResult
	tm           *timing.State
}

// counters returns the decomposed run's work counters, which must repeat
// exactly across runs.
func (s *flowSteps) counters() []float64 {
	return []float64{
		float64(s.stats.ForwardPinVisits), float64(s.stats.BackwardPinVisits),
		float64(s.stats.ExtractedEdges), float64(s.stats.ExtractArcVisits),
		float64(s.rounds), float64(s.coreEdges),
		float64(s.recon.Attempted), float64(s.recon.Reconnected), float64(s.recon.Reverted),
		float64(s.move.Moves), float64(s.move.Reverted), float64(s.move.Passes),
	}
}

// decomposeFlow calls flow.Run's steps itself — Clone → Compile → NewState →
// Measure → per stage (core.Schedule → opt.Reconnect → opt.MoveCells) →
// Measure → CheckConstraints — with a span around each call. rec, when
// non-nil, is installed on the timer as flow.Config.Recorder would be.
func decomposeFlow(input *netlist.Design, tr *tracer, rec *obs.Recorder) (*flowSteps, error) {
	s := &flowSteps{}
	var err error
	tr.do("flow", func() {
		var d *netlist.Design
		tr.do("netlist.clone", func() { d = input.Clone() })
		var g *timing.Graph
		tr.do("timing.compile", func() { g, err = timing.Compile(d, delay.Default()) })
		if err != nil {
			return
		}
		var tm *timing.State
		tr.do("timing.new_state", func() {
			tm = g.NewState()
			tm.SetWorkers(timerWorkers)
			if rec != nil {
				tm.SetRecorder(rec)
			}
		})
		s.tm = tm
		tr.do("eval.measure", func() { s.input = eval.Measure(tm) })
		edges0 := tm.Stats.ExtractedEdges
		for _, mode := range []timing.Mode{timing.Early, timing.Late} {
			var res *core.Result
			tr.do("core.schedule", func() {
				res, err = core.Schedule(tm, core.Options{Mode: mode, Workers: timerWorkers})
			})
			if err != nil {
				return
			}
			s.rounds += res.Rounds
			s.coreEdges += res.EdgesExtracted
			var rr *opt.ReconnectResult
			tr.do("opt.reconnect", func() { rr = opt.Reconnect(tm, res.Target, opt.ReconnectOptions{}) })
			var mr *opt.MoveResult
			tr.do("opt.move", func() { mr = opt.MoveCells(tm, opt.MoveOptions{}) })
			s.recon.Attempted += rr.Attempted
			s.recon.Reconnected += rr.Reconnected
			s.recon.Reverted += rr.Reverted
			s.move.Moves += mr.Moves
			s.move.Reverted += mr.Reverted
			s.move.Passes += mr.Passes
			// The flow's post-OPT trajectory point.
			tr.do("timing.wnstns", func() {
				tm.WNSTNS(timing.Early)
				tm.WNSTNS(timing.Late)
			})
		}
		tr.do("eval.measure", func() { s.final = eval.Measure(tm) })
		s.edges = tm.Stats.ExtractedEdges - edges0
		s.hpwlPct = eval.HPWLIncreasePct(s.input.HPWL, s.final.HPWL)
		tr.do("eval.check_constraints", func() {
			for _, e := range eval.CheckConstraints(d) {
				s.constraints = append(s.constraints, e.Error())
			}
		})
		s.stats = tm.Stats
	})
	return s, err
}

// traceFlowOurs is flow-ours' traced run: one untraced flow.Run as the
// reference, then the decomposed flow twice — untraced and traced (spans +
// an obs recorder) — then the timer probe on the final state of the
// untraced decomposition, so no recorder hook is in the probed calls.
func traceFlowOurs(cfg config, fcfg flow.Config, o *outcome) (*outcome, error) {
	genStart := time.Now()
	d, err := genDesign("superblue18", flowScale*cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	o.metrics["bench.generate_s"] = time.Since(genStart).Seconds()

	runtime.GC()
	o.op()
	t0 := time.Now()
	rep, err := flow.Run(d, fcfg)
	runWall := time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("flow.Run: %w", err)
	}

	runtime.GC()
	o.op()
	plain := newTracer()
	base, err := decomposeFlow(d, plain, nil)
	if err != nil {
		return nil, fmt.Errorf("decomposed flow: %w", err)
	}
	runtime.GC()
	o.op()
	tr := newTracer()
	rec := obs.NewRecorder()
	steps, err := decomposeFlow(d, tr, rec)
	if err != nil {
		return nil, fmt.Errorf("traced flow: %w", err)
	}

	// The decomposition must reproduce flow.Run exactly.
	for i, s := range []*flowSteps{base, steps} {
		got := []float64{
			s.final.WNSEarly, s.final.TNSEarly, s.final.WNSLate, s.final.TNSLate,
			float64(s.final.ViolEarly), float64(s.final.ViolLate), s.final.HPWL,
			s.hpwlPct, float64(s.edges), float64(s.rounds),
		}
		o.check(sameBits(got, flowFingerprint(rep)), "decomposed flow %d: Final metrics differ from flow.Run's", i)
		o.check(len(s.constraints) == 0, "decomposed flow %d: constraint errors %v", i, s.constraints)
	}
	o.check(len(rep.ConstraintErrs) == 0, "flow.Run: constraint errors %v", rep.ConstraintErrs)
	o.check(sameBits(base.counters(), steps.counters()), "work counters differ between the two decomposed flows")

	flowSpans(tr, o)
	o.metrics["timing.updates"] = float64(rec.Counter(obs.CtrTimerUpdates))
	o.metrics["timing.dirty_cells"] = float64(rec.Counter(obs.CtrTimerDirtyCells))
	o.metrics["timing.fwd_pins"] = float64(steps.stats.ForwardPinVisits)
	o.metrics["timing.bwd_pins"] = float64(steps.stats.BackwardPinVisits)
	o.metrics["timing.extract_arc_visits"] = float64(steps.stats.ExtractArcVisits)
	o.metrics["core.rounds"] = float64(steps.rounds)
	o.metrics["core.edges"] = float64(steps.edges)
	o.metrics["core.clamps_eq11"] = float64(rec.Counter(obs.CtrClampsEq11))
	o.metrics["core.cycles_frozen"] = float64(rec.Counter(obs.CtrCyclesFrozen))
	o.metrics["core.edge_yield"] = ratio(rec.Counter(obs.CtrRoundEdges), rec.Counter(obs.CtrExtractEdges))
	o.metrics["opt.reconnect_attempted"] = float64(steps.recon.Attempted)
	o.metrics["opt.reconnect_kept"] = float64(steps.recon.Reconnected)
	o.metrics["opt.reconnect_reverted"] = float64(steps.recon.Reverted)
	o.metrics["opt.move_kept"] = float64(steps.move.Moves)
	o.metrics["opt.move_reverted"] = float64(steps.move.Reverted)
	o.metrics["opt.move_passes"] = float64(steps.move.Passes)
	o.metrics["opt.move_yield"] = ratio(int64(steps.move.Moves), int64(steps.move.Moves+steps.move.Reverted))
	_, plainWall := plain.selfTime("flow")
	_, tracedWall := tr.selfTime("flow")
	o.metrics["obs.trace_overhead_pct"] = (tracedWall - plainWall) / plainWall * 100

	probeTimer(base.tm, o)
	o.note("flow.Run %.3f s, decomposed %.3f s untraced / %.3f s traced", runWall, plainWall, tracedWall)
	if err := tr.write(cfg.spans, cfg); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return o, nil
}

// spanTolerancePct is how much of the traced flow's wall time the layer
// spans may leave unaccounted for.
const spanTolerancePct = 1.0

// flowSpans turns the traced flow's spans into per-layer times.
func flowSpans(tr *tracer, o *outcome) {
	o.metrics["netlist.clone_s"] = tr.total("netlist.clone")
	o.metrics["timing.compile_s"] = tr.total("timing.compile")
	o.metrics["core.s"] = tr.total("core.schedule")
	o.metrics["opt.reconnect_s"] = tr.total("opt.reconnect")
	o.metrics["opt.move_s"] = tr.total("opt.move")
	o.metrics["eval.measure_ms"] = tr.total("eval.measure") * 1e3 / float64(tr.count("eval.measure"))
	wall := spanCoverage(tr, o)
	optShare := (tr.total("opt.move") + tr.total("opt.reconnect")) / wall * 100
	o.note("traced flow %.3f s: opt.move+opt.reconnect %.1f%%, core.schedule %.2f%%",
		wall, optShare, tr.total("core.schedule")/wall*100)
}

// spanCoverage reports the time the traced "flow" spans spend outside
// their layer spans, checks it against spanTolerancePct, and returns the
// spans' total wall time in seconds.
func spanCoverage(tr *tracer, o *outcome) float64 {
	self, wall := tr.selfTime("flow")
	cover := 100 * (1 - self/wall)
	o.metrics["flow.self_s"] = self
	o.metrics["flow.span_coverage_pct"] = cover
	o.check(cover >= 100-spanTolerancePct, "layer spans cover %.3f%% of the traced flow, want >= %.1f%%", cover, 100-spanTolerancePct)
	return wall
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
