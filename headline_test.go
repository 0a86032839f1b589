package iterskew_test

import (
	"math"
	"testing"

	"iterskew"
)

// TestHeadlineClaims is the regression guard for the paper's key evaluation
// shape (EXPERIMENTS.md E1/E3): if a change to any module breaks the
// qualitative Table-I story, this test fails. It runs two scaled designs
// through all four methods.
func TestHeadlineClaims(t *testing.T) {
	// cssRepeats is how many flows time each method's CSS phase; the
	// minimum is compared, so a busy neighbour CPU cannot fake a slowdown.
	const cssRepeats = 3
	type agg struct {
		edges           int64
		cssNS           int64
		earlyWNS        float64
		lateTNSImprove  float64
		earlyWNSImprove float64
	}
	sums := map[iterskew.Method]*agg{}
	methods := []iterskew.Method{iterskew.FPM, iterskew.OursEarly, iterskew.ICCSSPlus, iterskew.Ours}
	for _, m := range methods {
		sums[m] = &agg{}
	}

	var oursLate, icLate []float64
	for _, name := range []string{"superblue18", "superblue5"} {
		p, err := iterskew.SuperblueProfile(name, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		d, err := iterskew.GenerateBenchmark(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range methods {
			// The flow is deterministic: repeats change only CSSTime.
			var rep *iterskew.FlowReport
			cssNS := int64(math.MaxInt64)
			for r := 0; r < cssRepeats; r++ {
				rr, err := iterskew.RunFlow(d, iterskew.FlowConfig{Method: m})
				if err != nil {
					t.Fatalf("%s/%v: %v", name, m, err)
				}
				if len(rr.ConstraintErrs) != 0 {
					t.Fatalf("%s/%v: %v", name, m, rr.ConstraintErrs)
				}
				if rep == nil {
					rep = rr
				}
				cssNS = min(cssNS, rr.CSSTime.Nanoseconds())
			}
			a := sums[m]
			a.edges += rep.ExtractedEdges
			a.cssNS += cssNS
			a.earlyWNS += rep.Final.WNSEarly
			a.lateTNSImprove += pct(rep.Input.TNSLate, rep.Final.TNSLate)
			a.earlyWNSImprove += pct(rep.Input.WNSEarly, rep.Final.WNSEarly)
			switch m {
			case iterskew.Ours:
				oursLate = append(oursLate, rep.Final.WNSLate)
			case iterskew.ICCSSPlus:
				icLate = append(icLate, rep.Final.WNSLate)
			}
		}
	}

	ours, ic, fpm, oursEarly := sums[iterskew.Ours], sums[iterskew.ICCSSPlus], sums[iterskew.FPM], sums[iterskew.OursEarly]

	// Claim 1 (Table I / Fig 2): ≥80% fewer extracted edges than IC-CSS+
	// (paper: 90.05%).
	reduction := 1 - float64(ours.edges)/float64(ic.edges)
	if reduction < 0.80 {
		t.Errorf("edge reduction %.1f%% below the claimed regime", reduction*100)
	}
	// Claim 2: the CSS phase is faster than IC-CSS+'s (paper: 49×; we
	// require ≥2× at this scale, on each method's fastest of cssRepeats).
	if float64(ic.cssNS) < 2*float64(ours.cssNS) {
		t.Errorf("CSS speedup %.2fx below 2x", float64(ic.cssNS)/float64(ours.cssNS))
	}
	// Claim 3: IC-CSS+ and Ours tie on final late WNS (same optimum).
	for i := range oursLate {
		if math.Abs(oursLate[i]-icLate[i]) > math.Max(1, 0.02*math.Abs(oursLate[i])) {
			t.Errorf("late WNS tie broken: %v vs %v", oursLate[i], icLate[i])
		}
	}
	// Claim 4: full flows improve late TNS by double digits (paper +12.3%).
	if ours.lateTNSImprove/2 < 8 {
		t.Errorf("late TNS improvement %.1f%% below regime", ours.lateTNSImprove/2)
	}
	// Claim 5: FPM improves early WNS but less than the iterative methods
	// (paper: +64.8% vs +87.5%).
	if fpm.earlyWNSImprove > ours.earlyWNSImprove+1e-9 {
		t.Errorf("FPM (%.1f%%) beat the iterative flow (%.1f%%) on early WNS",
			fpm.earlyWNSImprove/2, ours.earlyWNSImprove/2)
	}
	// Claim 6: Ours-Early's extraction is tiny next to FPM's full graph.
	if oursEarly.edges*5 > fpm.edges {
		t.Errorf("Ours-Early extracted %d edges vs FPM %d — not <20%%", oursEarly.edges, fpm.edges)
	}
}

func pct(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / math.Abs(before) * 100
}
