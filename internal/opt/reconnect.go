// Package opt implements the paper's §IV slack optimization techniques,
// which realize the target latencies computed by clock skew scheduling:
//
//   - LCB–FF reconnection (§IV-A): move a flip-flop's clock pin to an LCB
//     whose distance produces the scheduled latency (Eq 15–16), respecting
//     the LCB fanout limit and the one-reconnection-per-LCB rule;
//   - cell movement (§IV-B): nudge movable cells on early-violating paths
//     north/south/east/west with a growing step to lengthen the short path.
package opt

import (
	"math"
	"sort"
	"time"

	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

const eps = 1e-6

// ReconnectOptions tunes §IV-A.
type ReconnectOptions struct {
	// MaxCandidates is the candidate-set size drawn from the distance
	// matrix (default 8).
	MaxCandidates int
	// MaxPerLCB caps how many reconnections an LCB may receive; the paper
	// prohibits reconnecting to an LCB "that has already undergone
	// reconnection", i.e. 1 (the default).
	MaxPerLCB int
	// ImpactWeight scales the cost of latency shifts induced on the other
	// flip-flops of the affected LCBs (default 1).
	ImpactWeight float64
	// MinTarget skips targets smaller than this (not worth a reconnection;
	// default 1 ps).
	MinTarget float64
}

func (o *ReconnectOptions) defaults() {
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 8
	}
	if o.MaxPerLCB == 0 {
		o.MaxPerLCB = 1
	}
	if o.ImpactWeight == 0 {
		o.ImpactWeight = 1
	}
	if o.MinTarget == 0 {
		o.MinTarget = 1
	}
}

// ReconnectResult reports what the reconnection pass did.
type ReconnectResult struct {
	Attempted   int
	Reconnected int
	Reverted    int // applied but rolled back by the TNS guard
	// ResidualAbs is the summed |achieved − desired| latency error over all
	// targeted flip-flops after the pass.
	ResidualAbs float64
	Elapsed     time.Duration
}

// Reconnect realizes the scheduled latencies physically: for each targeted
// flip-flop (largest target first) it picks the LCB whose reconnection cost
// (Eq 15 plus induced impact) is lowest, within the fanout and
// once-per-LCB constraints. Predictive latencies are cleared up front, so
// every decision — and the per-move TNS guard that reverts harmful
// reconnections — is evaluated against physical reality.
func Reconnect(tm *timing.Timer, targets map[netlist.CellID]float64, o ReconnectOptions) *ReconnectResult {
	start := time.Now()
	o.defaults()
	d := tm.D
	res := &ReconnectResult{}

	// Desired absolute latency per FF, captured before any change.
	desired := map[netlist.CellID]float64{}
	order := make([]netlist.CellID, 0, len(targets))
	for ff, l := range targets {
		if l < o.MinTarget {
			continue
		}
		desired[ff] = tm.BaseLatency(ff) + l
		order = append(order, ff)
	}
	sort.Slice(order, func(i, j int) bool {
		if targets[order[i]] != targets[order[j]] {
			return targets[order[i]] > targets[order[j]]
		}
		return order[i] < order[j]
	})

	// Physical reality from here on: drop all predictive latencies.
	for _, ff := range d.FFs {
		tm.SetExtraLatency(ff, 0)
	}
	tm.Update()

	tnsPair := func() (float64, float64) {
		_, te := tm.WNSTNS(timing.Early)
		_, tl := tm.WNSTNS(timing.Late)
		return te, tl
	}

	lcbUsed := map[netlist.CellID]int{}
	ckType := func(ff netlist.CellID) float64 { return d.Cells[ff].Type.InputCap }

	for _, ff := range order {
		res.Attempted++
		if len(d.LCBs) == 0 {
			// Flip-flops clocked straight from the root: nothing to
			// reconnect to.
			res.ResidualAbs += math.Abs(tm.BaseLatency(ff) - desired[ff])
			continue
		}
		target := targets[ff]
		ck := d.FFClock(ff)
		cur := d.LCBofFF(ff)
		ffPos := d.Cells[ff].Pos

		lcbDrive := d.Cells[d.LCBs[0]].Type.DriveRes
		distStar := tm.M.TargetDistance(target, ckType(ff), lcbDrive)

		// Candidate set from the distance matrix: LCBs whose distance is
		// closest to Dist*.
		type cand struct {
			lcb  netlist.CellID
			dist float64
		}
		var cands []cand
		for _, lcb := range d.LCBs {
			if lcb == cur {
				continue
			}
			if d.LCBMaxFanout > 0 && d.LCBFanout(lcb) >= d.LCBMaxFanout {
				continue
			}
			if lcbUsed[lcb] >= o.MaxPerLCB {
				continue
			}
			cands = append(cands, cand{lcb, ffPos.Manhattan(d.Cells[lcb].Pos)})
		}
		sort.Slice(cands, func(i, j int) bool {
			di := math.Abs(cands[i].dist - distStar)
			dj := math.Abs(cands[j].dist - distStar)
			if di != dj {
				return di < dj
			}
			return cands[i].lcb < cands[j].lcb
		})
		if len(cands) > o.MaxCandidates {
			cands = cands[:o.MaxCandidates]
		}

		keepCost := math.Abs(tm.BaseLatency(ff) - desired[ff])
		bestCost := keepCost
		bestLCB := netlist.NoCell
		for _, c := range cands {
			pred, impact := predictReconnect(tm, ff, cur, c.lcb)
			cost := math.Abs(pred-desired[ff]) + o.ImpactWeight*impact
			if cost < bestCost-eps {
				bestCost = cost
				bestLCB = c.lcb
			}
		}
		if bestLCB == netlist.NoCell {
			res.ResidualAbs += keepCost
			continue
		}

		beforeE, beforeL := tnsPair()
		net := d.Pins[d.LCBOut(bestLCB)].Net
		d.MovePinToNet(ck, net)
		tm.DirtyCell(ff)
		tm.DirtyCell(cur)
		tm.DirtyCell(bestLCB)
		tm.Update()

		afterE, afterL := tnsPair()
		if afterE < beforeE-eps || afterL < beforeL-eps {
			// The schedule said this latency helps, but physically the move
			// hurt one corner (granularity overshoot, co-FF impact): the
			// stage discipline of §V — improve one violation type under the
			// other's constraints — demands a rollback.
			oldNet := d.Pins[d.LCBOut(cur)].Net
			d.MovePinToNet(ck, oldNet)
			tm.DirtyCell(ff)
			tm.DirtyCell(cur)
			tm.DirtyCell(bestLCB)
			tm.Update()
			res.Reverted++
			res.ResidualAbs += math.Abs(tm.BaseLatency(ff) - desired[ff])
			continue
		}
		lcbUsed[bestLCB]++
		res.Reconnected++
		res.ResidualAbs += math.Abs(tm.BaseLatency(ff) - desired[ff])
	}

	res.Elapsed = time.Since(start)
	return res
}

// predictReconnect estimates the flip-flop's latency after reconnecting from
// LCB `from` to LCB `to`, and the summed |Δlatency| induced on the other
// flip-flops of both LCBs (the CPPR-motivated impact term of §IV-A).
func predictReconnect(tm *timing.Timer, ff, from, to netlist.CellID) (newLat, impact float64) {
	d := tm.D
	m := tm.M
	ck := d.FFClock(ff)
	ckCap := d.Pins[ck].Cap

	// Current arrival at the destination LCB's output.
	toOutNet := d.Pins[d.LCBOut(to)].Net
	toFanout := d.Nets[toOutNet].Sinks
	var toBase float64 // latency at LCB output = any sink's base − its branch
	if len(toFanout) > 0 {
		s := toFanout[0]
		sff := d.Pins[s].Cell
		toBase = tm.BaseLatency(sff) - m.SinkWireDelay(d, toOutNet, s)
	} else {
		// Empty LCB: derive from the clock root side.
		toBase = tm.LCBOutArrival(to)
	}

	dist := d.Cells[ff].Pos.Manhattan(d.Cells[to].Pos)
	addedLoad := ckCap + m.WireCap(dist)
	drive := d.Cells[to].Type.DriveRes
	// Extra LCB arc delay from the added load shifts everyone on `to`; the
	// impact term is the per-flip-flop latency shift each side sees.
	shift := drive * addedLoad
	newLat = toBase + shift + m.WireDelay(dist, ckCap)
	if len(toFanout) > 0 {
		impact += shift
	}

	// Removing the FF from `from` speeds its remaining flip-flops up.
	fromOutNet := d.Pins[d.LCBOut(from)].Net
	if fromOutNet != netlist.NoNet && len(d.Nets[fromOutNet].Sinks) > 1 {
		oldDist := d.Cells[ff].Pos.Manhattan(d.Cells[from].Pos)
		removedLoad := ckCap + m.WireCap(oldDist)
		impact += d.Cells[from].Type.DriveRes * removedLoad
	}
	return newLat, impact
}
