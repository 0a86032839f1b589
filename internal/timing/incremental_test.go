package timing_test

import (
	"testing"

	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// lcbSinks counts the flip-flop clock sinks an LCB drives.
func lcbSinks(d *netlist.Design, lcb netlist.CellID) int64 {
	net := d.Pins[d.LCBOut(lcb)].Net
	if net == netlist.NoNet {
		return 0
	}
	n := int64(0)
	for _, s := range d.Nets[net].Sinks {
		if d.Cells[d.Pins[s].Cell].Type.Kind == netlist.KindFF {
			n++
		}
	}
	return n
}

// TestTrialWorkCounters bounds the work one §IV trial pays — the gate that
// keeps OPT's per-trial cost proportional to the edit, not the design:
//
//   - a comb-cell move (MoveCell → DirtyCell → Update → WNSTNS) evaluates no
//     clock sink and derives no more slacks than the pins Update visited;
//   - an LCB–FF reconnection evaluates exactly the sinks of the two LCBs;
//   - moving a cell on the root net re-evaluates the whole clock network.
//
// That the cached results stay exact is TestParallelIncrementalUpdateEquivalence's
// job (root package).
func TestTrialWorkCounters(t *testing.T) {
	tm := genTimer(t)
	d := tm.D
	nEnd := int64(len(tm.Endpoints()))
	tm.FullUpdate() // caches the root arrival
	tm.WNSTNS(timing.Late)
	if got := tm.Stats.SlackEvals; got != nEnd {
		t.Fatalf("cache build derived %d slacks, want one per endpoint (%d)", got, nEnd)
	}

	// Comb-cell move on the worst early path.
	viol := tm.ViolatedEndpoints(timing.Early, nil)
	if len(viol) == 0 {
		t.Fatal("no early violation in fixture")
	}
	comb := netlist.NoCell
	for _, p := range tm.WorstPath(viol[0], timing.Early) {
		if c := d.Pins[p].Cell; d.Cells[c].Type.Kind == netlist.KindComb && !d.Cells[c].Fixed {
			comb = c
			break
		}
	}
	if comb == netlist.NoCell {
		t.Fatal("no movable cell on the worst early path")
	}
	origin := d.Cells[comb].Pos
	if !d.MoveCell(comb, origin.Add(geom.Pt(0.5*d.MaxDisp, 0))) {
		t.Fatal("trial move rejected")
	}
	before := tm.Stats
	tm.DirtyCell(comb)
	pins := tm.Update()
	tm.WNSTNS(timing.Late)
	clk, slk := tm.Stats.ClockSinkEvals-before.ClockSinkEvals, tm.Stats.SlackEvals-before.SlackEvals
	if clk != 0 {
		t.Errorf("comb move evaluated %d clock sinks, want 0", clk)
	}
	if slk == 0 || slk > int64(pins) || 10*slk > nEnd {
		t.Errorf("comb move derived %d slacks for %d visited pins (%d endpoints)", slk, pins, nEnd)
	}
	d.MoveCell(comb, origin)
	tm.DirtyCell(comb)
	tm.Update()

	// LCB–FF reconnection.
	ff := d.FFs[0]
	from := d.LCBofFF(ff)
	to := netlist.NoCell
	for _, l := range d.LCBs {
		if l != from && lcbSinks(d, l) > 0 {
			to = l
			break
		}
	}
	if from == netlist.NoCell || to == netlist.NoCell {
		t.Fatal("fixture lacks two populated LCBs")
	}
	d.MovePinToNet(d.FFClock(ff), d.Pins[d.LCBOut(to)].Net)
	before = tm.Stats
	tm.DirtyCell(ff)
	tm.DirtyCell(from)
	tm.DirtyCell(to)
	tm.Update()
	if got, want := tm.Stats.ClockSinkEvals-before.ClockSinkEvals, lcbSinks(d, from)+lcbSinks(d, to); got != want {
		t.Errorf("reconnection evaluated %d clock sinks, want the two LCBs' %d", got, want)
	}

	// A root-net edit: relocating an LCB moves the balanced root arrival.
	all := int64(0)
	for _, l := range d.LCBs {
		all += lcbSinks(d, l)
	}
	d.Cells[to].Pos = d.Cells[to].Pos.Add(geom.Pt(d.Die.Width(), 0))
	before = tm.Stats
	tm.DirtyCell(to)
	tm.Update()
	if got := tm.Stats.ClockSinkEvals - before.ClockSinkEvals; got != all {
		t.Errorf("root-net edit evaluated %d clock sinks, want the whole network's %d", got, all)
	}
}
