// Guards the observability acceptance criterion: installing a metrics-only
// Recorder adds zero allocations per operation on the timer hot paths, and
// the paths were allocation-free to begin with once warm.
package iterskew_test

import (
	"testing"

	"iterskew"
	"iterskew/internal/delay"
	"iterskew/internal/obs"
	"iterskew/internal/timing"
)

func allocTimer(t *testing.T) *timing.Timer {
	t.Helper()
	p, err := iterskew.SuperblueProfile("superblue18", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestUpdateZeroExtraAllocsWithRecorder measures steady-state Update allocs
// — plus the WNSTNS and ViolatedEndpoints queries that follow every trial,
// which maintain and read the slack cache — without a recorder and with a
// live metrics-only recorder; the counts must match (the hooks are atomic
// adds plus a histogram observe), and both must be zero.
func TestUpdateZeroExtraAllocsWithRecorder(t *testing.T) {
	tm := allocTimer(t)
	ffs := tm.D.FFs
	i := 0
	var viol []timing.EndpointID
	step := func() {
		for j := i % 5; j < len(ffs); j += 5 {
			tm.SetExtraLatency(ffs[j], float64((i+j)%23))
		}
		tm.Update()
		tm.WNSTNS(timing.Late)
		viol = tm.ViolatedEndpoints(timing.Early, viol[:0])
		i++
	}
	for k := 0; k < 10; k++ {
		step() // warm the dirty-set and level buffers
	}
	base := testing.AllocsPerRun(50, step)

	tm.SetRecorder(obs.NewRecorder())
	for k := 0; k < 10; k++ {
		step()
	}
	withRec := testing.AllocsPerRun(50, step)
	if withRec > base {
		t.Fatalf("Update allocs/op rose from %v to %v with a recorder installed", base, withRec)
	}
	if base != 0 {
		t.Fatalf("warm Update allocates %v allocs/op, want 0", base)
	}
}

// TestExtractZeroExtraAllocsWithRecorder does the same for the batch
// extraction entry point (serial path, which shares the worker-span hooks).
func TestExtractZeroExtraAllocsWithRecorder(t *testing.T) {
	tm := allocTimer(t)
	viol := tm.ViolatedEndpoints(timing.Late, nil)
	if len(viol) == 0 {
		t.Skip("no violations at this scale")
	}
	var buf []timing.SeqEdge
	run := func() {
		buf = tm.ExtractEssentialBatch(viol, timing.Late, 0, 1, buf[:0])
	}
	for k := 0; k < 5; k++ {
		run()
	}
	base := testing.AllocsPerRun(50, run)

	tm.SetRecorder(obs.NewRecorder())
	for k := 0; k < 5; k++ {
		run()
	}
	withRec := testing.AllocsPerRun(50, run)
	if withRec > base {
		t.Fatalf("extraction allocs/op rose from %v to %v with a recorder installed", base, withRec)
	}
	if base != 0 {
		t.Fatalf("warm extraction allocates %v allocs/op, want 0", base)
	}
}
