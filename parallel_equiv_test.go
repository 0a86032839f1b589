package iterskew_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"iterskew"
	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/iccss"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// TestParallelSTAEquivalenceAtScale verifies parallel and serial full
// propagation agree on a generated design large enough to engage the
// per-level worker chunks.
func TestParallelSTAEquivalenceAtScale(t *testing.T) {
	p, err := iterskew.SuperblueProfile("superblue18", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	par, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	// Perturb latencies identically, then fully re-propagate both ways.
	for i, ff := range d.FFs {
		if i%7 == 0 {
			serial.SetExtraLatency(ff, float64(i%97))
			par.SetExtraLatency(ff, float64(i%97))
		}
	}
	serial.FullUpdate()
	par.FullUpdateParallel(8)

	for e := range serial.Endpoints() {
		s1 := serial.LateSlack(timing.EndpointID(e))
		s2 := par.LateSlack(timing.EndpointID(e))
		if math.Abs(s1-s2) > 1e-9 && !(math.IsInf(s1, 1) && math.IsInf(s2, 1)) {
			t.Fatalf("endpoint %d late slack: serial %v vs parallel %v", e, s1, s2)
		}
		e1 := serial.EarlySlack(timing.EndpointID(e))
		e2 := par.EarlySlack(timing.EndpointID(e))
		if math.Abs(e1-e2) > 1e-9 && !(math.IsInf(e1, 1) && math.IsInf(e2, 1)) {
			t.Fatalf("endpoint %d early slack: serial %v vs parallel %v", e, e1, e2)
		}
	}
	w1, t1 := serial.WNSTNS(timing.Late)
	w2, t2 := par.WNSTNS(timing.Late)
	if math.Abs(w1-w2) > 1e-9 || math.Abs(t1-t2) > 1e-9 {
		t.Fatalf("WNS/TNS mismatch: %v/%v vs %v/%v", w1, t1, w2, t2)
	}
}

// equivSeeds are the generator-seed offsets the byte-identity suites sweep.
var equivSeeds = []int64{0, 101, 202, 303, 404}

// equivDesign generates the superblue18 profile at the given scale with a
// perturbed generator seed.
func equivDesign(t *testing.T, scale float64, seed int64) *netlist.Design {
	t.Helper()
	p, err := iterskew.SuperblueProfile("superblue18", scale)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed += seed
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sameEdges(t *testing.T, label string, a, b []timing.SeqEdge) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d edges serial vs %d batch", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Launch != b[i].Launch || a[i].Capture != b[i].Capture ||
			a[i].Mode != b[i].Mode ||
			math.Float64bits(a[i].Delay) != math.Float64bits(b[i].Delay) {
			t.Fatalf("%s: edge %d differs: serial %+v vs batch %+v", label, i, a[i], b[i])
		}
	}
}

// TestBatchExtractionEquivalence verifies that every batch extractor produces
// byte-identical edges — and identical instrumentation counters — to its
// serial per-root loop, across generator seeds, both modes, and several
// worker widths.
func TestBatchExtractionEquivalence(t *testing.T) {
	for _, seed := range equivSeeds {
		d := equivDesign(t, 0.01, seed)
		tm, err := timing.New(d, delay.Default())
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []timing.Mode{timing.Late, timing.Early} {
			endpoints := tm.ViolatedEndpoints(mode, nil)

			var serial []timing.SeqEdge
			s0 := tm.Stats
			for _, e := range endpoints {
				serial = tm.ExtractEssentialAt(e, mode, 0, serial)
			}
			sd := tm.Stats
			sd.ExtractedEdges -= s0.ExtractedEdges
			sd.ExtractArcVisits -= s0.ExtractArcVisits

			for _, workers := range []int{2, 4, 8} {
				b0 := tm.Stats
				batch := tm.ExtractEssentialBatch(endpoints, mode, 0, workers, nil)
				bd := tm.Stats
				bd.ExtractedEdges -= b0.ExtractedEdges
				bd.ExtractArcVisits -= b0.ExtractArcVisits
				sameEdges(t, "essential", serial, batch)
				if sd.ExtractedEdges != bd.ExtractedEdges || sd.ExtractArcVisits != bd.ExtractArcVisits {
					t.Fatalf("essential stats: serial %+v vs batch %+v (seed %d mode %v workers %d)",
						sd, bd, seed, mode, workers)
				}
			}

			// Full-cone extractors over every flip-flop.
			ffs := d.FFs
			var from, into []timing.SeqEdge
			for _, ff := range ffs {
				from = tm.ExtractAllFrom(ff, mode, from)
				into = tm.ExtractAllInto(ff, mode, into)
			}
			fromB := tm.ExtractAllFromBatch(ffs, mode, 8, nil)
			intoB := tm.ExtractAllIntoBatch(ffs, mode, 8, nil)
			sameEdges(t, "allFrom", from, fromB)
			sameEdges(t, "allInto", into, intoB)
		}
	}
}

// TestParallelIncrementalUpdateEquivalence verifies that the worker-pool
// incremental Update visits the same pins and produces bit-identical slacks
// as the serial path, across seeds and repeated perturbation waves — and,
// at widths 1 and 4, that the slack cache and the per-LCB clock refresh
// stay exact through random edit/invalidation sequences.
func TestParallelIncrementalUpdateEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("caches/workers=%d", workers), func(t *testing.T) {
			for _, seed := range equivSeeds[:2] {
				incrementalCacheSequence(t, seed, workers)
			}
		})
	}
	for _, seed := range equivSeeds {
		d := equivDesign(t, 0.01, seed)
		serial, err := timing.New(d, delay.Default())
		if err != nil {
			t.Fatal(err)
		}
		par, err := timing.New(d, delay.Default())
		if err != nil {
			t.Fatal(err)
		}
		par.SetWorkers(8)
		for wave := 0; wave < 3; wave++ {
			for i, ff := range d.FFs {
				if i%5 == wave%5 {
					l := float64((i+wave)%89) / 3
					serial.SetExtraLatency(ff, l)
					par.SetExtraLatency(ff, l)
				}
			}
			v1 := serial.Update()
			v2 := par.Update()
			if v1 != v2 {
				t.Fatalf("seed %d wave %d: serial visited %d pins, parallel %d", seed, wave, v1, v2)
			}
			for e := range serial.Endpoints() {
				id := timing.EndpointID(e)
				for _, m := range []timing.Mode{timing.Late, timing.Early} {
					s1 := serial.Slack(id, m)
					s2 := par.Slack(id, m)
					if math.Float64bits(s1) != math.Float64bits(s2) {
						t.Fatalf("seed %d wave %d endpoint %d %v slack: %v vs %v", seed, wave, e, m, s1, s2)
					}
				}
			}
		}
	}
}

// TestScheduleWorkersEquivalence verifies the full schedulers are oblivious
// to the worker width: core.Schedule and iccss.Schedule at Workers=8 must
// reproduce the serial schedule exactly (targets, rounds, edge counts).
func TestScheduleWorkersEquivalence(t *testing.T) {
	sameTargets := func(label string, a, b map[netlist.CellID]float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d targets serial vs %d parallel", label, len(a), len(b))
		}
		for c, v := range a {
			if w, ok := b[c]; !ok || math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: cell %d target %v vs %v", label, c, v, w)
			}
		}
	}
	for _, seed := range equivSeeds[:2] {
		for _, mode := range []timing.Mode{timing.Late, timing.Early} {
			d := equivDesign(t, 0.01, seed)

			run := func(workers int) *core.Result {
				tm, err := timing.New(d.Clone(), delay.Default())
				if err != nil {
					t.Fatal(err)
				}
				if workers > 1 {
					tm.SetWorkers(workers)
				}
				return mustCoreSchedule(t, tm, core.Options{Mode: mode, Workers: workers})
			}
			r1, r8 := run(1), run(8)
			if r1.Rounds != r8.Rounds || r1.Cycles != r8.Cycles || r1.EdgesExtracted != r8.EdgesExtracted {
				t.Fatalf("core seed %d %v: rounds/cycles/edges %d/%d/%d vs %d/%d/%d",
					seed, mode, r1.Rounds, r1.Cycles, r1.EdgesExtracted, r8.Rounds, r8.Cycles, r8.EdgesExtracted)
			}
			sameTargets("core", r1.Target, r8.Target)

			runIC := func(workers int) *iccss.Result {
				tm, err := timing.New(d.Clone(), delay.Default())
				if err != nil {
					t.Fatal(err)
				}
				if workers > 1 {
					tm.SetWorkers(workers)
				}
				return mustICCSSSchedule(t, tm, iccss.Options{Mode: mode, Workers: workers})
			}
			i1, i8 := runIC(1), runIC(8)
			if i1.Rounds != i8.Rounds || i1.EdgesExtracted != i8.EdgesExtracted || i1.CriticalVerts != i8.CriticalVerts {
				t.Fatalf("iccss seed %d %v: rounds/edges/crit %d/%d/%d vs %d/%d/%d",
					seed, mode, i1.Rounds, i1.EdgesExtracted, i1.CriticalVerts, i8.Rounds, i8.EdgesExtracted, i8.CriticalVerts)
			}
			sameTargets("iccss", i1.Target, i8.Target)
		}
	}
}

// requireSlackCacheLive checks the timer's cached WNSTNS and
// ViolatedEndpoints against a live per-endpoint scan, bit for bit.
func requireSlackCacheLive(t *testing.T, tm *timing.State, step string) {
	t.Helper()
	for _, m := range []timing.Mode{timing.Late, timing.Early} {
		var lw, lt float64
		var lv []timing.EndpointID
		for e := range tm.Endpoints() {
			s := tm.Slack(timing.EndpointID(e), m)
			if s < 0 {
				lt += s
				lw = math.Min(lw, s)
			}
			if s < -1e-9 {
				lv = append(lv, timing.EndpointID(e))
			}
		}
		w, tns := tm.WNSTNS(m)
		if math.Float64bits(w) != math.Float64bits(lw) || math.Float64bits(tns) != math.Float64bits(lt) {
			t.Fatalf("%s: %v WNS/TNS %v/%v, live scan %v/%v", step, m, w, tns, lw, lt)
		}
		if v := tm.ViolatedEndpoints(m, nil); !slices.Equal(v, lv) {
			t.Fatalf("%s: %v violated endpoints %d, live scan %d (or order differs)", step, m, len(v), len(lv))
		}
	}
}

// incrementalCacheSequence drives one state through a seeded random mix of
// every edit and invalidation the timer's incremental caches must survive —
// comb-cell moves, LCB–FF reconnections, latency changes, SetPeriod,
// SetDerates, Reset, Graph.Recompile, and an Update aborted by the SetCheck
// hook then resumed — checking after every step that the slack cache
// matches the live scan and that the incrementally refreshed clock matches
// a whole-network re-evaluation (a twin state that runs FullUpdate, which
// always re-evaluates every LCB, after each step).
func incrementalCacheSequence(t *testing.T, seed int64, workers int) {
	d := equivDesign(t, 0.01, seed)
	g, err := timing.Compile(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	tm, ref := g.NewState(), g.NewState()
	tm.SetWorkers(workers)
	rng := rand.New(rand.NewSource(seed + 7))

	var combs []netlist.CellID
	for c := range d.Cells {
		if d.Cells[c].Type.Kind == netlist.KindComb && !d.Cells[c].Fixed {
			combs = append(combs, netlist.CellID(c))
		}
	}
	var lcbs []netlist.CellID
	for _, l := range d.LCBs {
		if d.Pins[d.LCBOut(l)].Net != netlist.NoNet {
			lcbs = append(lcbs, l)
		}
	}
	var delta timing.Delta // design edits since the last Recompile
	recompile := func() {
		if _, err := g.Recompile(delta); err != nil {
			t.Fatal(err)
		}
		delta = timing.Delta{}
	}
	settled := func(step string) {
		t.Helper()
		requireSlackCacheLive(t, tm, step)
		ref.FullUpdate()
		for _, ff := range d.FFs {
			if a, b := tm.BaseLatency(ff), ref.BaseLatency(ff); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: ff %d base latency %v, whole-network refresh %v", step, ff, a, b)
			}
		}
	}

	tm.WNSTNS(timing.Late) // build the cache
	for step := 0; step < 80; step++ {
		name := fmt.Sprintf("seed %d workers %d step %d", seed, workers, step)
		switch rng.Intn(10) {
		case 0, 1: // comb-cell move
			c := combs[rng.Intn(len(combs))]
			pos := d.Cells[c].Pos
			off := geom.Pt((rng.Float64()-0.5)*d.MaxDisp, (rng.Float64()-0.5)*d.MaxDisp)
			if d.MoveCell(c, pos.Add(off)) {
				tm.DirtyCell(c)
				delta.Cells = append(delta.Cells, c)
			}
		case 2: // LCB–FF reconnection
			ff := d.FFs[rng.Intn(len(d.FFs))]
			from, to := d.LCBofFF(ff), lcbs[rng.Intn(len(lcbs))]
			if from == netlist.NoCell || from == to {
				continue
			}
			ck := d.FFClock(ff)
			fromNet, toNet := d.Pins[ck].Net, d.Pins[d.LCBOut(to)].Net
			d.MovePinToNet(ck, toNet)
			tm.DirtyCell(ff)
			tm.DirtyCell(from)
			tm.DirtyCell(to)
			delta.Nets = append(delta.Nets, fromNet, toNet)
			delta.Pins = append(delta.Pins, ck)
		case 3: // an LCB relocation ECO: a root-net edit
			l := lcbs[rng.Intn(len(lcbs))]
			d.Cells[l].Pos = d.Cells[l].Pos.Add(geom.Pt((rng.Float64()-0.5)*d.MaxDisp, 0))
			tm.DirtyCell(l)
			delta.Cells = append(delta.Cells, l)
		case 4: // predictive latency
			for j := 0; j < 1+rng.Intn(20); j++ {
				tm.AddExtraLatency(d.FFs[rng.Intn(len(d.FFs))], (rng.Float64()-0.5)*40)
			}
		case 5:
			tm.SetPeriod(d.Period * (0.9 + 0.2*rng.Float64()))
		case 6:
			tm.SetDerates(0.9+0.1*rng.Float64(), 1+0.1*rng.Float64())
		case 7: // Recompile, sometimes of a port-timing ECO only it reports
			if rng.Intn(2) == 0 {
				port := d.OutPorts[rng.Intn(len(d.OutPorts))]
				d.SetOutputDelay(port, d.OutDelay[port]+d.Period*rng.Float64())
				delta.PortTiming = true
			}
			recompile()
		case 8:
			recompile() // Reset is valid only against the current design
			tm.Reset()
			ref.Reset()
		default: // an Update cut short by the stop hook, then resumed
			for j := 0; j < 50; j++ {
				tm.AddExtraLatency(d.FFs[rng.Intn(len(d.FFs))], 25)
			}
			calls, stopAt := 0, 1+rng.Intn(4)
			tm.SetCheck(func() bool { calls++; return calls > stopAt })
			tm.Update()
			tm.SetCheck(nil)
			requireSlackCacheLive(t, tm, name+" (aborted)")
		}
		requireSlackCacheLive(t, tm, name+" (queued)")
		tm.Update()
		settled(name)
	}
}
