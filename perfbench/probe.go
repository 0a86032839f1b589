package main

import (
	"time"

	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// probeCalls is how many times the probe times each timer primitive; it
// reports the median call.
const probeCalls = 101

// probeTimer times each public timer primitive, per call, on a final flow
// state, with the pins (or endpoints) each call visits. These are the costs
// an OPT trial pays: a cell edit's Update (with its clock refresh), an LCB
// edit's Update, a latency change's Update, and the two endpoint scans.
// The probed cells sit at the worst early flip-flop endpoint. Latency edits
// are applied as +δ/−δ pairs; the state is left for no further measurement.
func probeTimer(tm *timing.State, o *outcome) {
	d := tm.D
	ff, comb := probeCells(tm)
	if ff == netlist.NoCell {
		o.fail("probe: no flip-flop endpoint")
		return
	}
	lcb := d.LCBofFF(ff)

	update := func(name string, edit func(i int)) {
		var us, pins []float64
		for i := 0; i < probeCalls; i++ {
			t0 := time.Now()
			edit(i)
			n := tm.Update()
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			pins = append(pins, float64(n))
		}
		o.metrics["timing.probe."+name+"_us"] = median(us)
		o.metrics["timing.probe."+name+"_pins"] = median(pins)
	}
	if comb != netlist.NoCell {
		update("update_comb", func(int) { tm.DirtyCell(comb) })
	}
	if lcb != netlist.NoCell {
		update("update_lcb", func(int) { tm.DirtyCell(lcb) })
	}
	update("update_latency", func(i int) {
		const delta = 1.0 // ps
		if i%2 == 0 {
			tm.AddExtraLatency(ff, delta)
		} else {
			tm.AddExtraLatency(ff, -delta)
		}
	})

	scan := func(name string, f func() int) {
		var us []float64
		n := 0
		for i := 0; i < probeCalls; i++ {
			t0 := time.Now()
			n = f()
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		o.metrics["timing.probe."+name+"_us"] = median(us)
		o.metrics["timing.probe."+name+"_endpoints"] = float64(n)
	}
	nEnd := len(tm.Endpoints())
	scan("wnstns", func() int {
		tm.WNSTNS(timing.Late)
		return nEnd
	})
	var buf []timing.EndpointID
	scan("violated", func() int {
		buf = tm.ViolatedEndpoints(timing.Early, buf[:0])
		return nEnd
	})
}

// probeCells picks the flip-flop with the worst early endpoint slack and the
// first movable combinational cell on its worst early path.
func probeCells(tm *timing.State) (ff, comb netlist.CellID) {
	d := tm.D
	ff, comb = netlist.NoCell, netlist.NoCell
	worst := 0.0
	var worstE timing.EndpointID = timing.NoEndpoint
	for i, e := range tm.Endpoints() {
		if e.IsPort {
			continue
		}
		if s := tm.EarlySlack(timing.EndpointID(i)); worstE == timing.NoEndpoint || s < worst {
			worst, worstE, ff = s, timing.EndpointID(i), e.Cell
		}
	}
	if worstE == timing.NoEndpoint {
		return ff, comb
	}
	for _, p := range tm.WorstPath(worstE, timing.Early) {
		c := d.Pins[p].Cell
		if d.Cells[c].Type.Kind == netlist.KindComb && !d.Cells[c].Fixed {
			return ff, c
		}
	}
	return ff, comb
}
