// Compile-once/schedule-many benchmarks: the cost of opening a scheduling
// session on an existing compiled timing.Graph (NewState) versus a full
// timer build (timing.New), plus a guard test that the pooled path keeps a
// healthy amortization margin on a superblue-profile design; and the two
// ways to avoid a compile altogether, decoding a graphio artifact (cold
// start) and patching a compiled graph with Graph.Recompile (ECO loop).
package iterskew_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"iterskew"
	"iterskew/internal/delay"
	"iterskew/internal/engine"
	"iterskew/internal/graphio"
	"iterskew/internal/netlist"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

func sessionBenchDesign(tb testing.TB) *iterskew.Design {
	tb.Helper()
	p, err := iterskew.SuperblueProfile("superblue18", benchScale)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkSession_TimingNew is the pre-refactor per-session cost: a full
// graph build (CSR, levelization, classification) plus the bootstrap STA.
func BenchmarkSession_TimingNew(b *testing.B) {
	d := sessionBenchDesign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.New(d, delay.Default()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSession_GraphNewState is the compile-once path: the graph is
// built once outside the loop, each session only copies the pristine
// snapshot into fresh state arrays.
func BenchmarkSession_GraphNewState(b *testing.B) {
	d := sessionBenchDesign(b)
	g, err := timing.Compile(d, delay.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NewState()
	}
}

// BenchmarkSession_EngineRun measures a full pooled scheduling session:
// acquire a recycled state, run the paper's scheduler, reset and release.
func BenchmarkSession_EngineRun(b *testing.B) {
	d := sessionBenchDesign(b)
	e, err := engine.New(d, delay.Default(), engine.Config{MaxInFlight: 1})
	if err != nil {
		b.Fatal(err)
	}
	job := engine.Job{Options: sched.Options{Mode: timing.Early}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(job); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewStateAmortization guards the refactor's dividend: opening a session
// on a compiled graph must be far cheaper than a full timing.New build on a
// superblue-profile design. The acceptance target is 5x; measured margins
// are ~15x, so 3x here keeps the guard insensitive to host noise.
func TestNewStateAmortization(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	d := sessionBenchDesign(t)
	g, err := timing.Compile(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	const reps = 5
	// Warm both paths once so neither pays first-touch costs in the
	// measured loop.
	if _, err := timing.New(d, delay.Default()); err != nil {
		t.Fatal(err)
	}
	g.NewState()

	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := timing.New(d, delay.Default()); err != nil {
			t.Fatal(err)
		}
	}
	full := time.Since(start)
	start = time.Now()
	for i := 0; i < reps; i++ {
		g.NewState()
	}
	pooled := time.Since(start)

	ratio := float64(full) / float64(pooled)
	t.Logf("timing.New %v vs Graph.NewState %v per session (%.1fx)", full/reps, pooled/reps, ratio)
	if ratio < 3 {
		t.Errorf("NewState only %.1fx cheaper than timing.New, want >= 3x (acceptance target 5x)", ratio)
	}
}

// BenchmarkColdStart compares, per superblue profile, the two ways a new
// process gets a compiled graph: compile it from the netlist, or read a
// graphio artifact from disk and decode it against the input hash (which a
// loader computes once per design, so it is outside the loop). The
// compile/decode ns/op ratio is the cold-start speedup; identity of the
// decoded graph is checked by graphio.TestRoundTrip and
// flow.TestRunFromGraphSnapshot.
func BenchmarkColdStart(b *testing.B) {
	m := delay.Default()
	for _, name := range iterskew.SuperblueNames() {
		d := genDesign(b, name, benchScale)
		b.Run(name+"/compile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := timing.Compile(d, m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			g, err := timing.Compile(d, m)
			if err != nil {
				b.Fatal(err)
			}
			h, err := graphio.HashOf(d, m)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := graphio.Write(&buf, g); err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "graph.iskg")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob, err := os.ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := graphio.DecodeVerified(blob, d, m, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecompileDelta is the ECO loop, per superblue profile: each op
// moves one combinational cell by one unit (alternating back and forth) and
// patches the compiled graph with Graph.Recompile. Dividing
// BenchmarkColdStart/<design>/compile by it gives the recompile speedup;
// TestRecompileMatchesCompile checks the patched graph against a fresh
// compile.
func BenchmarkRecompileDelta(b *testing.B) {
	for _, name := range iterskew.SuperblueNames() {
		b.Run(name, func(b *testing.B) {
			d := genDesign(b, name, benchScale)
			g, err := timing.Compile(d, delay.Default())
			if err != nil {
				b.Fatal(err)
			}
			// The first comb cell that accepts a one-unit move; the loop then
			// alternates between its two accepted positions.
			cell := netlist.NoCell
			for c := range d.Cells {
				pos := d.Cells[c].Pos
				pos.X++
				if d.Cells[c].Type.Kind == netlist.KindComb && d.MoveCell(netlist.CellID(c), pos) {
					cell = netlist.CellID(c)
					break
				}
			}
			if cell == netlist.NoCell {
				b.Fatal("no movable comb cell")
			}
			delta := timing.Delta{Cells: []netlist.CellID{cell}}
			if _, err := g.Recompile(delta); err != nil {
				b.Fatal(err)
			}
			dx := -1.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pos := d.Cells[cell].Pos
				pos.X += dx
				dx = -dx
				if !d.MoveCell(cell, pos) {
					b.Fatal("move rejected")
				}
				st, err := g.Recompile(delta)
				if err != nil {
					b.Fatal(err)
				}
				if st.Full {
					b.Fatal("single-cell delta fell back to a full compile")
				}
			}
		})
	}
}
