package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/eval"
	"iterskew/internal/flow"
	"iterskew/internal/fpm"
	"iterskew/internal/iccss"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// cssScale is the css-table design scale.
const cssScale = 0.1

// cssDesigns are the css-table designs: superblue18 stalls on frozen cycles
// in the late stage while superblue1 runs its late rounds out, so the two use
// the scheduler layer differently.
var cssDesigns = []string{"superblue18", "superblue1"}

// cssMethods are the Table-I rows css-table sweeps, with the per-layer
// prefix each one's scheduler reports under.
var cssMethods = []struct {
	method flow.Method
	layer  string
}{
	{flow.Ours, "core"},
	{flow.ICCSSPlus, "iccss"},
	{flow.FPM, "fpm"},
}

type cssDesign struct {
	d *netlist.Design
	g *timing.Graph
}

// cssSetup generates and compiles every css-table design, returning the
// seconds spent generating and compiling.
func cssSetup(cfg config) (designs []cssDesign, genS, compS float64, err error) {
	for _, name := range cssDesigns {
		t0 := time.Now()
		d, err := genDesign(name, cssScale*cfg.scale, cfg.seed)
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		g, err := timing.Compile(d, delay.Default())
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		genS += t1.Sub(t0).Seconds()
		compS += time.Since(t1).Seconds()
		designs = append(designs, cssDesign{d, g})
	}
	return designs, genS, compS, nil
}

func cssConfig(m flow.Method) flow.Config {
	return flow.Config{Method: m, SkipOpt: true, Workers: timerWorkers}
}

// cssFingerprint is what one timing-only run reports that must repeat bit
// for bit across runs.
func cssFingerprint(rep *flow.Report) []float64 {
	f := rep.Final
	return []float64{
		f.WNSEarly, f.TNSEarly, f.WNSLate, f.TNSLate, float64(f.ViolEarly), float64(f.ViolLate), f.HPWL,
		float64(rep.ExtractedEdges), float64(rep.Rounds),
	}
}

// runCSSTable is the css-table workload: timing-only Table-I CSS via
// flow.RunGraph(SkipOpt) — Ours, IC-CSS+ and FPM on each design, over graphs
// compiled once in set-up. One op is one sweep of all six runs.
func runCSSTable(cfg config) (*outcome, error) {
	o := newOutcome()
	if cfg.trace {
		return traceCSSTable(cfg, o)
	}
	var designs []cssDesign
	setup, err := timeSetups(func() error {
		designs = nil // let the previous set-up's graphs go before the next
		var err error
		designs, _, _, err = cssSetup(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}

	// One untimed warm-up sweep gives the reference every timed sweep must
	// reproduce bit for bit, and the QoR.
	runtime.GC()
	var want [][]float64
	for _, cd := range designs {
		for _, m := range cssMethods {
			o.op()
			rep, err := flow.RunGraph(cd.g, cssConfig(m.method))
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", m.method, err)
			}
			o.check(len(rep.ConstraintErrs) == 0, "%s: constraint errors %v", m.method, rep.ConstraintErrs)
			want = append(want, cssFingerprint(rep))
			p := cd.d.Period
			o.metrics["early_wns_viol"] += violPct(rep.Final.WNSEarly, p)
			o.metrics["early_tns_viol"] += violPct(rep.Final.TNSEarly, p)
			o.metrics["late_wns_viol"] += violPct(rep.Final.WNSLate, p)
			o.metrics["late_tns_viol"] += violPct(rep.Final.TNSLate, p)
			o.metrics["hpwl_final_pct"] = math.Max(o.metrics["hpwl_final_pct"], 100+rep.HPWLIncrPct)
		}
	}

	var wall []float64
	start := time.Now()
	for len(wall) < 2 || time.Since(start).Seconds() < cfg.seconds {
		runtime.GC()
		var sweep time.Duration
		for di, cd := range designs {
			for mi, m := range cssMethods {
				o.op()
				t0 := time.Now()
				rep, err := flow.RunGraph(cd.g, cssConfig(m.method))
				sweep += time.Since(t0)
				if err != nil {
					o.fail("sweep %d %s: %v", len(wall), m.method, err)
					continue
				}
				o.check(sameBits(cssFingerprint(rep), want[di*len(cssMethods)+mi]),
					"sweep %d: %s QoR or work counters differ from the warm-up sweep", len(wall), m.method)
				o.check(len(rep.ConstraintErrs) == 0, "%s: constraint errors %v", m.method, rep.ConstraintErrs)
			}
		}
		wall = append(wall, ms(sweep))
	}
	elapsed := time.Since(start).Seconds()
	tl, pct := tail(wall)
	o.metrics["setup_s"] = setup
	o.metrics["op_p50_ms"] = median(wall)
	o.metrics["op_tail_ms"] = tl
	o.metrics["ops_per_s"] = float64(len(wall)) / elapsed
	o.metrics["peak_rss_mb"] = peakRSSMB()
	o.note("%d sweeps, tail = p%.1f", len(wall), pct)
	return o, nil
}

// cssSteps is one decomposed timing-only run.
type cssSteps struct {
	final       eval.Metrics
	edges       int64
	rounds      int
	constraints []string
	stats       timing.Counters
	res         []*sched.Result
	tm          *timing.State
}

func (s *cssSteps) counters() []float64 {
	out := []float64{
		float64(s.stats.ForwardPinVisits), float64(s.stats.BackwardPinVisits),
		float64(s.stats.ExtractedEdges), float64(s.stats.ExtractArcVisits), float64(s.rounds),
	}
	for _, r := range s.res {
		out = append(out, float64(r.EdgesExtracted), float64(r.ConstraintExts), float64(r.CriticalVerts), float64(r.Cycles))
	}
	return out
}

// decomposeRunGraph calls flow.RunGraph's steps for one timing-only method
// itself — NewState → Measure → the method's scheduler stages → Measure →
// CheckConstraints — with a span around each call.
func decomposeRunGraph(g *timing.Graph, m flow.Method, layer string, tr *tracer, rec *obs.Recorder) (*cssSteps, error) {
	s := &cssSteps{}
	var err error
	tr.do("flow", func() {
		var tm *timing.State
		tr.do("timing.new_state", func() {
			tm = g.NewState()
			tm.SetWorkers(timerWorkers)
			if rec != nil {
				tm.SetRecorder(rec)
			}
		})
		s.tm = tm
		tr.do("eval.measure", func() { eval.Measure(tm) })
		edges0 := tm.Stats.ExtractedEdges
		stage := func(mode timing.Mode) {
			var res *sched.Result
			tr.do(layer+".schedule", func() {
				switch m {
				case flow.FPM:
					res, err = fpm.Schedule(tm, fpm.Options{})
				case flow.ICCSSPlus:
					res, err = iccss.Schedule(tm, iccss.Options{Mode: mode, Workers: timerWorkers})
				default:
					res, err = core.Schedule(tm, core.Options{Mode: mode, Workers: timerWorkers})
				}
			})
			if err == nil {
				s.rounds += res.Rounds
				s.res = append(s.res, res)
			}
		}
		if m == flow.FPM {
			stage(timing.Early)
		} else {
			stage(timing.Early)
			if err == nil {
				stage(timing.Late)
			}
		}
		if err != nil {
			return
		}
		tr.do("eval.measure", func() { s.final = eval.Measure(tm) })
		s.edges = tm.Stats.ExtractedEdges - edges0
		tr.do("eval.check_constraints", func() {
			for _, e := range eval.CheckConstraints(g.Design()) {
				s.constraints = append(s.constraints, e.Error())
			}
		})
		s.stats = tm.Stats
	})
	return s, err
}

// traceCSSTable is css-table's traced run: one untraced sweep through
// flow.RunGraph as the reference, then the decomposed sweep twice — untraced
// and traced (spans + one obs recorder per scheduler) — then the timer probe
// on superblue18's final untraced Ours state.
func traceCSSTable(cfg config, o *outcome) (*outcome, error) {
	designs, genS, compS, err := cssSetup(cfg)
	if err != nil {
		return nil, err
	}
	o.metrics["bench.generate_s"] = genS
	o.metrics["timing.compile_s"] = compS

	var refs [][]float64
	for _, cd := range designs {
		for _, m := range cssMethods {
			o.op()
			rep, err := flow.RunGraph(cd.g, cssConfig(m.method))
			if err != nil {
				return nil, fmt.Errorf("RunGraph %s: %w", m.method, err)
			}
			o.check(len(rep.ConstraintErrs) == 0, "%s: constraint errors %v", m.method, rep.ConstraintErrs)
			refs = append(refs, cssFingerprint(rep))
		}
	}

	sweep := func(tr *tracer, recs map[string]*obs.Recorder) ([]*cssSteps, error) {
		runtime.GC()
		var out []*cssSteps
		for _, cd := range designs {
			for _, m := range cssMethods {
				o.op()
				s, err := decomposeRunGraph(cd.g, m.method, m.layer, tr, recs[m.layer])
				if err != nil {
					return nil, fmt.Errorf("decomposed %s: %w", m.method, err)
				}
				out = append(out, s)
			}
		}
		return out, nil
	}
	plain := newTracer()
	base, err := sweep(plain, map[string]*obs.Recorder{})
	if err != nil {
		return nil, err
	}
	for _, s := range base[1:] {
		s.tm = nil // only the probe's state stays alive
	}
	tr := newTracer()
	recs := map[string]*obs.Recorder{}
	for _, m := range cssMethods {
		recs[m.layer] = obs.NewRecorder()
	}
	steps, err := sweep(tr, recs)
	if err != nil {
		return nil, err
	}
	for _, s := range steps {
		s.tm = nil
	}

	var stats timing.Counters
	edges := map[string]int64{}
	rounds := map[string]int{}
	var constraintExts, criticalVerts int
	for i, s := range steps {
		b := base[i]
		got := []float64{
			s.final.WNSEarly, s.final.TNSEarly, s.final.WNSLate, s.final.TNSLate,
			float64(s.final.ViolEarly), float64(s.final.ViolLate), s.final.HPWL,
			float64(s.edges), float64(s.rounds),
		}
		o.check(sameBits(got, refs[i]), "decomposed run %d: Final metrics differ from flow.RunGraph's", i)
		o.check(sameBits(b.counters(), s.counters()), "decomposed run %d: work counters differ between runs", i)
		o.check(len(s.constraints) == 0, "decomposed run %d: constraint errors %v", i, s.constraints)
		layer := cssMethods[i%len(cssMethods)].layer
		edges[layer] += s.edges
		rounds[layer] += s.rounds
		if layer == "iccss" {
			for _, r := range s.res {
				constraintExts += r.ConstraintExts
				criticalVerts += r.CriticalVerts
			}
		}
		stats.ForwardPinVisits += s.stats.ForwardPinVisits
		stats.BackwardPinVisits += s.stats.BackwardPinVisits
		stats.ExtractArcVisits += s.stats.ExtractArcVisits
	}

	var updates, dirty int64
	for _, r := range recs {
		updates += r.Counter(obs.CtrTimerUpdates)
		dirty += r.Counter(obs.CtrTimerDirtyCells)
	}
	rc := recs["core"]
	o.metrics["timing.updates"] = float64(updates)
	o.metrics["timing.dirty_cells"] = float64(dirty)
	o.metrics["timing.fwd_pins"] = float64(stats.ForwardPinVisits)
	o.metrics["timing.bwd_pins"] = float64(stats.BackwardPinVisits)
	o.metrics["timing.extract_arc_visits"] = float64(stats.ExtractArcVisits)
	for _, m := range cssMethods {
		o.metrics[m.layer+".s"] = tr.total(m.layer + ".schedule")
		o.metrics[m.layer+".edges"] = float64(edges[m.layer])
	}
	o.metrics["core.rounds"] = float64(rounds["core"])
	o.metrics["core.clamps_eq11"] = float64(rc.Counter(obs.CtrClampsEq11))
	o.metrics["core.cycles_frozen"] = float64(rc.Counter(obs.CtrCyclesFrozen))
	o.metrics["core.edge_yield"] = ratio(rc.Counter(obs.CtrRoundEdges), rc.Counter(obs.CtrExtractEdges))
	o.metrics["iccss.rounds"] = float64(rounds["iccss"])
	o.metrics["iccss.constraint_exts"] = float64(constraintExts)
	o.metrics["iccss.critical_verts"] = float64(criticalVerts)
	o.metrics["eval.measure_ms"] = tr.total("eval.measure") * 1e3 / float64(tr.count("eval.measure"))
	wall := spanCoverage(tr, o)
	_, plainWall := plain.selfTime("flow")
	o.metrics["obs.trace_overhead_pct"] = (wall - plainWall) / plainWall * 100

	probeTimer(base[0].tm, o)
	o.note("decomposed sweep %.3f s untraced / %.3f s traced", plainWall, wall)
	if err := tr.write(cfg.spans, cfg); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return o, nil
}
