package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The self-test runs every workload once per kind (end-to-end and traced) at
// a tiny scale and checks the result line against BENCHMARK.json, so an API
// change in the layers breaks this test rather than the benchmark runs.
//
//	cd perfbench && go test .

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// strictDecode decodes data into v, refusing unknown keys at every level.
func strictDecode(t *testing.T, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
}

func loadBenchmark(t *testing.T) *benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	var b benchFile
	strictDecode(t, data, &b)
	// Every metric and workload entry must carry exactly its keys.
	var raw struct {
		Workloads []map[string]any `json:"workloads"`
		EndToEnd  []map[string]any `json:"end_to_end"`
		PerLayer  []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, group := range []struct {
		entries []map[string]any
		keys    int
	}{{raw.Workloads, 2}, {raw.EndToEnd, 4}, {raw.PerLayer, 3}} {
		for _, e := range group.entries {
			if len(e) != group.keys {
				t.Errorf("entry %v has %d keys, want %d", e, len(e), group.keys)
			}
		}
	}
	return &b
}

func TestBenchmarkSchema(t *testing.T) {
	b := loadBenchmark(t)
	if n := len(b.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if n := len(b.Paths); n < 1 || n > 16 {
		t.Errorf("paths has %d entries", n)
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	// A full proof makes 4 + 22 runs per workload, which with their set-up,
	// checks and two builds must end within 3420 s. Runs spend about 12 s
	// outside their window (css-table's set-up is the largest), so the
	// windows alone may take at most 65% of that.
	if n := 4 + 22*len(b.Workloads); float64(n*b.RunSeconds) > 0.65*3420 {
		t.Errorf("%d runs of %d s leave too little room for set-up and builds", n, b.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var wl []string
	for _, w := range b.Workloads {
		name(w.Name)
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(wl), len(workloads))
	}

	var setup bool
	var bounds []float64
	for i, m := range b.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("metric %s: bound %v not in (0, 0.25]", m.Name, m.Bound)
		}
		bounds = append(bounds, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
		if i >= len(endToEnd) || endToEnd[i] != (metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("end_to_end[%d] = %s/%s/%s does not match the program's list", i, m.Name, m.Unit, m.Better)
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range b.EndToEnd {
		if m.Name != "setup_s" {
			continue
		}
		for _, o := range bounds {
			if o > m.Bound {
				t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, o)
			}
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if i >= len(perLayer) || perLayer[i] != (metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("per_layer[%d] = %s/%s/%s does not match the program's list", i, m.Name, m.Unit, m.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
}

// TestLedger checks that the design record names a prediction for every
// per-layer metric and a why, the layers exercised and skipped for every
// workload.
func TestLedger(t *testing.T) {
	data, err := os.ReadFile("ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	var l struct {
		Workloads map[string]struct {
			Why       string   `json:"why"`
			Exercises []string `json:"exercises"`
			Skips     []string `json:"skips"`
		} `json:"workloads"`
		PerLayer   map[string][]string `json:"per_layer"`
		RecordedOn struct {
			NProc      int `json:"nproc"`
			GOMAXPROCS int `json:"gomaxprocs"`
		} `json:"recorded_on"`
	}
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatal(err)
	}
	if l.RecordedOn.NProc < 1 || l.RecordedOn.GOMAXPROCS < 1 {
		t.Error("ledger lacks the recording host's nproc/GOMAXPROCS")
	}
	for name := range workloads {
		w, ok := l.Workloads[name]
		if !ok || w.Why == "" || len(w.Exercises) == 0 || len(w.Skips) == 0 {
			t.Errorf("ledger: workload %s needs why, exercises and skips", name)
		}
	}
	e2e := map[string]bool{"none": true, "no change": true}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, m := range perLayer {
		preds := l.PerLayer[m.Name]
		if len(preds) == 0 {
			t.Errorf("ledger: per-layer metric %s has no prediction", m.Name)
		}
		for _, p := range preds {
			metric, wl, ok := strings.Cut(p, "@")
			if !ok || !e2e[metric] || workloads[wl] == nil {
				t.Errorf("ledger: %s: prediction %q must be <end-to-end metric>@<workload>", m.Name, p)
			}
		}
	}
	if len(l.PerLayer) != len(perLayer) {
		t.Errorf("ledger lists %d per-layer metrics, the program %d", len(l.PerLayer), len(perLayer))
	}
}

// tinyScale shrinks every design so one run of each workload takes seconds.
const tinyScale = 0.05

func TestWorkloadsTiny(t *testing.T) {
	b := loadBenchmark(t)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 0, trace: trace, scale: tinyScale, spans: t.TempDir()}
			var out bytes.Buffer
			if code := run(cfg, &out); code != 0 {
				t.Errorf("%s trace=%v: exit code %d\n%s", w.Name, trace, code, out.String())
				continue
			}
			var last string
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				last = sc.Text()
			}
			var res resultLine
			dec := json.NewDecoder(strings.NewReader(last))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Errorf("%s trace=%v: last line %q: %v", w.Name, trace, last, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != units[m.Name] {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", w.Name, trace, m.Name, got.Unit, units[m.Name])
				}
				// Slack can reach 0 on a tiny design; a time, rate or size cannot.
				if !trace && got.Value <= 0 && !strings.HasPrefix(got.Unit, "%") {
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
