// Microbenchmarks for the flat-kernel fast path: CSR propagation, the
// parallel batch extractor, the allocation-lean incremental Update, and one
// §IV cell-move trial.
// All report allocs/op so benchstat can track both time and GC pressure
// PR-over-PR.
package iterskew_test

import (
	"fmt"
	"testing"

	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// perfScale is the mid-size profile the hot-path benchmarks run on.
const perfScale = 0.02

func perfTimer(b *testing.B) *timing.Timer {
	b.Helper()
	d := genDesign(b, "superblue18", perfScale)
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		b.Fatal(err)
	}
	return tm
}

func BenchmarkExtractEssentialBatch(b *testing.B) {
	tm := perfTimer(b)
	viol := tm.ViolatedEndpoints(timing.Late, nil)
	if len(viol) == 0 {
		b.Skip("no violations")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var buf []timing.SeqEdge
			for i := 0; i < b.N; i++ {
				buf = tm.ExtractEssentialBatch(viol, timing.Late, 0, workers, buf[:0])
			}
			b.ReportMetric(float64(len(viol)), "endpoints")
			b.ReportMetric(float64(len(buf)), "edges")
		})
	}
}

func BenchmarkExtractAllFromBatch(b *testing.B) {
	tm := perfTimer(b)
	ffs := tm.D.FFs
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var buf []timing.SeqEdge
			for i := 0; i < b.N; i++ {
				buf = tm.ExtractAllFromBatch(ffs, timing.Late, workers, buf[:0])
			}
			b.ReportMetric(float64(len(buf)), "edges")
		})
	}
}

func BenchmarkIncrementalUpdate(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tm := perfTimer(b)
			tm.SetWorkers(workers)
			ffs := tm.D.FFs
			b.ReportAllocs()
			b.ResetTimer()
			pins := 0
			for i := 0; i < b.N; i++ {
				// Rotate a 20% slice of the flip-flops each iteration so the
				// dirty cones stay realistic for a CSS round.
				for j := i % 5; j < len(ffs); j += 5 {
					tm.SetExtraLatency(ffs[j], float64((i+j)%23))
				}
				pins += tm.Update()
			}
			b.ReportMetric(float64(pins)/float64(b.N), "pins/op")
		})
	}
}

func BenchmarkCSRPropagation(b *testing.B) {
	tm := perfTimer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.FullUpdate()
	}
	b.ReportMetric(float64(len(tm.D.Pins)), "pins")
}

// BenchmarkMoveTrial times one §IV-B cell-move trial as MoveCells runs it —
// move, DirtyCell, Update, the late WNSTNS guard, then the revert — on a
// combinational cell of the worst early path. The trial's timer work is
// the edit's cone: no clock sink is re-evaluated and only the endpoints
// Update visits re-derive their slack.
func BenchmarkMoveTrial(b *testing.B) {
	tm := perfTimer(b)
	d := tm.D
	viol := tm.ViolatedEndpoints(timing.Early, nil)
	if len(viol) == 0 {
		b.Skip("no early violations")
	}
	comb := netlist.NoCell
	for _, p := range tm.WorstPath(viol[0], timing.Early) {
		if c := d.Pins[p].Cell; d.Cells[c].Type.Kind == netlist.KindComb && !d.Cells[c].Fixed {
			comb = c
			break
		}
	}
	if comb == netlist.NoCell {
		b.Skip("no movable cell on the worst early path")
	}
	origin := d.Cells[comb].Pos
	target := origin.Add(geom.Pt(0.25*d.MaxDisp, 0))
	b.ReportAllocs()
	b.ResetTimer()
	s0 := tm.Stats
	for i := 0; i < b.N; i++ {
		d.MoveCell(comb, target)
		tm.DirtyCell(comb)
		tm.Update()
		tm.WNSTNS(timing.Late)
		d.MoveCell(comb, origin)
		tm.DirtyCell(comb)
		tm.Update()
	}
	b.ReportMetric(float64(tm.Stats.SlackEvals-s0.SlackEvals)/float64(b.N), "slacks/op")
	b.ReportMetric(float64(tm.Stats.ClockSinkEvals-s0.ClockSinkEvals)/float64(b.N), "clocksinks/op")
}
