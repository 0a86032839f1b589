package timing

import (
	"math"

	"iterskew/internal/netlist"
)

// The physical clock network is root → CTS-balanced LCB inputs → LCB arcs →
// FF clock sinks. It is never derated, so base latencies are corner-
// invariant. refreshClock is its one evaluator: Update, FullUpdate,
// FullUpdateParallel and Recompile all call it, differing only in what they
// ask for (the nets an edit touched, or the whole network) and the change
// policy.

// clockPolicy decides when refreshClock counts a flip-flop's base latency as
// changed (and marks the flip-flop dirty).
type clockPolicy uint8

const (
	// clockEps is Update's cutoff: a latency moves only when it changes by
	// more than eps, like every other incremental timer value.
	clockEps clockPolicy = iota
	// clockExact is Recompile's: any bitwise change counts, and sub-eps
	// latencies snap to zero, so the refreshed snapshot reproduces what a
	// fresh Compile (an eps update over zeroed latencies) leaves behind.
	clockExact
)

// rootArrival returns the clock arrival at every LCB input and the root's
// output net (ok is false when the design has no driven clock root). The
// root→LCB level is CTS-balanced: every LCB input sees the arrival of the
// farthest branch (an idealized H-tree), so LCB-input skew is zero and all
// useful skew comes from LCB loads and output branches.
func (t *State) rootArrival() (atIn float64, rootNet netlist.NetID, ok bool) {
	d := t.D
	if d.ClockRoot == netlist.NoCell {
		return 0, netlist.NoNet, false
	}
	rootNet = d.Pins[d.OutPin(d.ClockRoot)].Net
	if rootNet == netlist.NoNet {
		return 0, netlist.NoNet, false
	}
	rootDelay := t.M.CellDelay(d.Cells[d.ClockRoot].Type, t.M.NetLoad(d, rootNet))
	balanced := 0.0
	for _, s := range d.Nets[rootNet].Sinks {
		if w := t.M.SinkWireDelay(d, rootNet, s); w > balanced {
			balanced = w
		}
	}
	return rootDelay + balanced, rootNet, true
}

// lcbOutAt returns the arrival at an LCB's output given the arrival at its
// input: the LCB arc under its present output load (zero when unconnected).
func (t *State) lcbOutAt(atIn float64, lcb netlist.CellID) float64 {
	d := t.D
	var load float64
	if out := d.Pins[d.LCBOut(lcb)].Net; out != netlist.NoNet {
		load = t.M.NetLoad(d, out)
	}
	return atIn + t.M.CellDelay(d.Cells[lcb].Type, load)
}

// LCBOutArrival returns the clock arrival at an LCB's output under the
// current placement — the latency its flip-flops see before their branch
// wire. It evaluates the same model, in the same arithmetic order, as the
// timer's clock refresh, so a prediction for an LCB that drives nothing yet
// matches what Update will compute once a flip-flop joins it.
func (t *State) LCBOutArrival(lcb netlist.CellID) float64 {
	atIn, _, _ := t.rootArrival()
	return t.lcbOutAt(atIn, lcb)
}

// refreshClock re-evaluates the clock network — all of it when whole is
// set, else as far as an edit that touched nets requires — marks every
// flip-flop whose base latency changed under pol dirty, and returns the
// clock sinks evaluated.
//
// It does nothing when no clock net was touched. Otherwise it recomputes the
// root arrival: while that is bit-unchanged from the state's cached value,
// only the LCBs driving a touched net are re-evaluated — every other LCB's
// inputs (root arrival, its type, its output net's load and branch wires)
// are bit-identical to its last evaluation, so it would reproduce the same
// latencies and the same no-change verdicts. A moved root arrival, or a
// state with no cached one (fresh from the snapshot or a Recompile),
// re-evaluates the whole network.
func (t *State) refreshClock(nets []netlist.NetID, whole bool, pol clockPolicy) int {
	d := t.D
	if !whole && !touchesClock(d, nets) {
		return 0
	}
	atIn, rootNet, ok := t.rootArrival()
	if !ok {
		return 0
	}
	if !t.clkRootOK || math.Float64bits(atIn) != math.Float64bits(t.clkRoot) {
		whole = true
	}
	t.clkRoot, t.clkRootOK = atIn, true
	evals := 0
	if whole {
		for _, lcb := range d.LCBs {
			evals += t.refreshLCB(lcb, rootNet, atIn, pol)
		}
		return evals
	}
	for _, n := range nets {
		if drv := d.Nets[n].Driver; d.Nets[n].IsClock && drv != netlist.NoPin {
			if c := d.Pins[drv].Cell; d.Cells[c].Type.Kind == netlist.KindLCB {
				evals += t.refreshLCB(c, rootNet, atIn, pol)
			}
		}
	}
	return evals
}

func touchesClock(d *netlist.Design, nets []netlist.NetID) bool {
	for _, n := range nets {
		if d.Nets[n].IsClock {
			return true
		}
	}
	return false
}

// refreshLCB re-evaluates the flip-flop clock sinks of one LCB fed from the
// root net and returns how many it evaluated.
func (t *State) refreshLCB(lcb netlist.CellID, rootNet netlist.NetID, atIn float64, pol clockPolicy) int {
	d := t.D
	if d.Pins[d.LCBIn(lcb)].Net != rootNet {
		return 0
	}
	outNet := d.Pins[d.LCBOut(lcb)].Net
	if outNet == netlist.NoNet {
		return 0
	}
	atOut := t.lcbOutAt(atIn, lcb)
	evals := 0
	for _, ck := range d.Nets[outNet].Sinks {
		ff := d.Pins[ck].Cell
		fi := t.ffIdx[ff]
		if fi < 0 {
			continue
		}
		evals++
		lat := atOut + t.M.SinkWireDelay(d, outNet, ck)
		if pol == clockExact {
			if math.Abs(lat) <= eps {
				lat = 0
			}
			if math.Float64bits(lat) == math.Float64bits(t.baseLat[fi]) {
				continue
			}
		} else if math.Abs(lat-t.baseLat[fi]) <= eps {
			continue
		}
		t.baseLat[fi] = lat
		t.markFFDirty(ff, fi)
	}
	return evals
}
