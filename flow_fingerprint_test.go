package iterskew_test

import (
	"math"
	"testing"

	"iterskew"
	"iterskew/internal/flow"
)

// scaleFlowFingerprint is one Ours flow on superblue18 at scale 0.1, the
// scale at which §IV OPT dominates the run: every Final metric plus the
// extraction and round counters. Each literal is the shortest decimal that
// round-trips to the recorded float64, so the comparison below is bitwise.
var scaleFlowFingerprint = map[string]float64{
	"WNSEarly":       -1268.8982700637334,
	"TNSEarly":       -5805.232051316212,
	"WNSLate":        -20490.026412261017,
	"TNSLate":        -807910.4371375376,
	"ViolEarly":      5,
	"ViolLate":       650,
	"HPWL":           1.4461358948756384e+07,
	"ExtractedEdges": 1871,
	"Rounds":         19,
}

// TestFlowFingerprintAtScale is the scale-honest identity gate for the timer
// and the §IV trials: a full Ours flow (CSS + OPT, both stages) on
// superblue18 at scale 0.1 must reproduce the recorded QoR and work counters
// bit for bit. Any change to propagation, clock refresh, slack reporting or
// trial decisions that moves a single bit fails it.
func TestFlowFingerprintAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.1 flow skipped under -short")
	}
	p, err := iterskew.SuperblueProfile("superblue18", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flow.Run(d, flow.Config{Method: flow.Ours})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ConstraintErrs) != 0 {
		t.Fatalf("constraint errors: %v", rep.ConstraintErrs)
	}
	f := rep.Final
	got := map[string]float64{
		"WNSEarly":       f.WNSEarly,
		"TNSEarly":       f.TNSEarly,
		"WNSLate":        f.WNSLate,
		"TNSLate":        f.TNSLate,
		"ViolEarly":      float64(f.ViolEarly),
		"ViolLate":       float64(f.ViolLate),
		"HPWL":           f.HPWL,
		"ExtractedEdges": float64(rep.ExtractedEdges),
		"Rounds":         float64(rep.Rounds),
	}
	for k, v := range got {
		if want := scaleFlowFingerprint[k]; math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("%s = %v, want %v", k, v, want)
		}
	}
}
