package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/engine"
	"iterskew/internal/eval"
	"iterskew/internal/fpm"
	"iterskew/internal/iccss"
	"iterskew/internal/netio"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/oracle"
	"iterskew/internal/sched"
	"iterskew/internal/serve"
	"iterskew/internal/timing"
)

const (
	// serveScale is the serve-mix design scale: jobs take a few ms, so the
	// service path (admission, state-pool reset, encoding, eval.Measure) is
	// a visible share of each one.
	serveScale = 0.01
	// serveClients is the number of closed-loop client connections; it
	// equals the server's MaxInFlight and the host's two CPUs.
	serveClients = 2
	// serveSeqLen is the length of the fixed job sequence the clients walk.
	serveSeqLen = 240
	// reuploadEvery inserts one re-upload of the same netlist (the cache-hit
	// write path: parse + hash) after this many jobs.
	reuploadEvery = 24
	// maxRetries bounds the retries of a request answered 429; exhausting
	// them is a failure.
	maxRetries = 50
)

// jobItem is one entry of the job sequence: a job spec, or a re-upload.
type jobItem struct {
	reupload bool
	spec     serve.JobSpec
	key      string // reference key: the spec without its Stream flag
}

var (
	serveSchedulers = []string{"core", "iccss", "fpm"}
	serveModes      = []string{"early", "late"}
	// periodLadder holds the what-if periods as factors of the design period
	// (0 keeps the design's own).
	periodLadder = []float64{0, 0.9, 0.95, 1.05, 1.1}
)

// serveSequence builds the fixed job mix and orders it by seed: every
// scheduler × mode pair runs at every ladder period, ¼ of jobs stream, 1/10
// run on 3 corners, and a re-upload follows every reuploadEvery jobs. The
// seed only shuffles the order, so every run does the same mix of work.
func serveSequence(seed int64, period float64) []jobItem {
	jobs := make([]jobItem, serveSeqLen)
	for i := range jobs {
		spec := serve.JobSpec{
			Scheduler: serveSchedulers[i%3],
			Mode:      serveModes[(i/3)%2],
			Stream:    i%4 == 3,
		}
		if i%10 == 9 {
			spec.Corners = []serve.CornerSpec{
				{Name: "nom", PeriodPS: period},
				{Name: "fast", PeriodPS: 0.95 * period},
				{Name: "slow", PeriodPS: 1.05 * period},
			}
		} else if f := periodLadder[(i/6)%len(periodLadder)]; f != 0 {
			spec.PeriodPS = f * period
		}
		jobs[i] = jobItem{spec: spec, key: specKey(spec)}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	var seq []jobItem
	for i, j := range jobs {
		seq = append(seq, j)
		if (i+1)%reuploadEvery == 0 {
			seq = append(seq, jobItem{reupload: true})
		}
	}
	return seq
}

func specKey(spec serve.JobSpec) string {
	spec.Stream = false
	b, _ := json.Marshal(spec) // a JobSpec always marshals
	return string(b)
}

// serveRef is the in-process engine.Run reference of one distinct spec: the
// JobResponse fields a served answer must reproduce bit for bit.
type serveRef struct {
	resp    serve.JobResponse
	target  map[netlist.CellID]float64
	kind    string // scheduler, or "mcmm" for corner jobs
	period  float64
	runMS   float64
	measMS  float64
	corners []engine.Corner
}

func schedulerOf(name string) sched.Scheduler {
	switch name {
	case "iccss":
		return iccss.Scheduler
	case "fpm":
		return fpm.Scheduler
	}
	return core.Scheduler
}

// serveReferences runs every distinct spec of seq in process, with the same
// JobSpec → engine.Job mapping the daemon uses, on a separately compiled
// graph of the same design.
func serveReferences(d *netlist.Design, seq []jobItem) (map[string]*serveRef, error) {
	g, err := timing.Compile(d, delay.Default())
	if err != nil {
		return nil, err
	}
	eng := engine.NewFromGraph(g, engine.Config{MaxInFlight: 1, Workers: timerWorkers})
	refs := map[string]*serveRef{}
	for _, it := range seq {
		if it.reupload || refs[it.key] != nil {
			continue
		}
		spec := it.spec
		mode := timing.Early
		if spec.Mode == "late" {
			mode = timing.Late
		}
		ref := &serveRef{kind: spec.Scheduler, period: d.Period}
		if spec.PeriodPS != 0 {
			ref.period = spec.PeriodPS
		}
		for _, c := range spec.Corners {
			ref.corners = append(ref.corners, engine.Corner{Name: c.Name, Period: c.PeriodPS})
		}
		if len(ref.corners) > 0 {
			ref.kind = "mcmm"
		}
		job := engine.Job{
			Scheduler: schedulerOf(spec.Scheduler),
			Options:   sched.Options{Mode: mode},
			Period:    spec.PeriodPS,
			Corners:   ref.corners,
		}
		r := &ref.resp
		job.After = func(tm sched.TimingView, _ *sched.Result) {
			t0 := time.Now()
			q := eval.Measure(tm)
			ref.measMS = ms(time.Since(t0))
			r.WNSEarlyPS, r.TNSEarlyPS, r.WNSLatePS, r.TNSLatePS = q.WNSEarly, q.TNSEarly, q.WNSLate, q.TNSLate
			if cv, ok := tm.(sched.CornerView); ok {
				r.CornerDiffRounds = cv.UnionDiffRounds()
				for i := 0; i < cv.NumCorners(); i++ {
					we, te := cv.CornerWNSTNS(i, timing.Early)
					wl, tl := cv.CornerWNSTNS(i, timing.Late)
					r.Corners = append(r.Corners, serve.CornerResult{
						Name: cv.CornerName(i), PeriodPS: ref.corners[i].Period,
						WNSEarlyPS: we, TNSEarlyPS: te, WNSLatePS: wl, TNSLatePS: tl,
					})
				}
			}
		}
		t0 := time.Now()
		res, err := eng.Run(job)
		ref.runMS = ms(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", it.key, err)
		}
		r.StopReason, r.Rounds, r.Cycles, r.EdgesExtracted = res.StopReason.String(), res.Rounds, res.Cycles, res.EdgesExtracted
		ref.target = res.Target
		refs[it.key] = ref
	}
	return refs, nil
}

// matches reports how a served answer differs from its reference, or "".
func (ref *serveRef) matches(got *serve.JobResponse) string {
	r := &ref.resp
	if got.StopReason != r.StopReason || got.Rounds != r.Rounds || got.Cycles != r.Cycles ||
		got.EdgesExtracted != r.EdgesExtracted || got.CornerDiffRounds != r.CornerDiffRounds {
		return fmt.Sprintf("work counters (stop %s rounds %d cycles %d edges %d) differ from the reference (%s %d %d %d)",
			got.StopReason, got.Rounds, got.Cycles, got.EdgesExtracted, r.StopReason, r.Rounds, r.Cycles, r.EdgesExtracted)
	}
	if !sameBits([]float64{got.WNSEarlyPS, got.TNSEarlyPS, got.WNSLatePS, got.TNSLatePS},
		[]float64{r.WNSEarlyPS, r.TNSEarlyPS, r.WNSLatePS, r.TNSLatePS}) {
		return "QoR differs from the reference"
	}
	if len(got.Corners) != len(r.Corners) {
		return "corner count differs from the reference"
	}
	for i, c := range got.Corners {
		w := r.Corners[i]
		if c.Name != w.Name || !sameBits([]float64{c.PeriodPS, c.WNSEarlyPS, c.TNSEarlyPS, c.WNSLatePS, c.TNSLatePS},
			[]float64{w.PeriodPS, w.WNSEarlyPS, w.TNSEarlyPS, w.WNSLatePS, w.TNSLatePS}) {
			return "corner " + c.Name + " QoR differs from the reference"
		}
	}
	tgt, err := got.TargetCells()
	if err != nil {
		return err.Error()
	}
	if len(tgt) != len(ref.target) {
		return "schedule size differs from the reference"
	}
	for c, v := range ref.target {
		if w, ok := tgt[c]; !ok || math.Float64bits(w) != math.Float64bits(v) {
			return fmt.Sprintf("latency of cell %d differs from the reference", c)
		}
	}
	return ""
}

// sortedKeys returns the references' keys in order, so sums over them
// repeat bit for bit.
func sortedKeys(refs map[string]*serveRef) []string {
	keys := make([]string, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// oracleTol is the agreement the reference WNS must reach with the oracle's
// independent STA, in ps.
const oracleTol = 1e-6

// checkOracle compares every reference's WNS with internal/oracle's
// independent extraction at the same period.
func checkOracle(d *netlist.Design, refs map[string]*serveRef, o *outcome) {
	graphs := map[float64]*oracle.Graph{}
	at := func(p float64) *oracle.Graph {
		if g, ok := graphs[p]; ok {
			return g
		}
		g, err := oracle.ExtractAt(d, delay.Default(), p, 0, 0)
		if err != nil {
			o.fail("oracle extraction at %g ps: %v", p, err)
		}
		graphs[p] = g
		return g
	}
	agree := func(what string, p float64, target map[netlist.CellID]float64, early, late float64) {
		g := at(p)
		if g == nil {
			return
		}
		oe := math.Min(g.WorstSlack(false, target), 0)
		ol := math.Min(g.WorstSlack(true, target), 0)
		tol := oracleTol * math.Max(1, math.Max(math.Abs(oe), math.Abs(ol)))
		o.check(math.Abs(oe-early) <= tol && math.Abs(ol-late) <= tol,
			"%s: timer WNS early %v late %v, oracle %v %v", what, early, late, oe, ol)
	}
	for _, k := range sortedKeys(refs) {
		ref := refs[k]
		if len(ref.corners) == 0 {
			agree(k, ref.period, ref.target, ref.resp.WNSEarlyPS, ref.resp.WNSLatePS)
			continue
		}
		for _, c := range ref.resp.Corners {
			agree(k+" corner "+c.Name, c.PeriodPS, ref.target, c.WNSEarlyPS, c.WNSLatePS)
		}
	}
}

// syncBuffer is an io.Writer safe for concurrent use (the access log).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// serveEnv is one running daemon (the handler iterskewd mounts) on a
// loopback listener, with the uploaded design.
type serveEnv struct {
	d        *netlist.Design
	netlist  []byte
	hs       *http.Server
	done     chan error
	base     string
	client   *http.Client
	handle   string
	uploadMS float64
	access   *syncBuffer
	rec      *obs.Recorder
}

// startServe generates the design, starts the daemon and uploads the
// netlist once. With accessLog set the daemon writes its JSONL access log.
func startServe(cfg config, accessLog bool) (*serveEnv, error) {
	d, err := genDesign("superblue18", serveScale*cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	var nb bytes.Buffer
	if err := netio.Write(&nb, d); err != nil {
		return nil, err
	}
	e := &serveEnv{d: d, netlist: nb.Bytes(), done: make(chan error, 1), rec: obs.NewRecorder()}
	scfg := serve.Config{MaxInFlight: serveClients, Workers: timerWorkers, Recorder: e.rec}
	if accessLog {
		e.access = &syncBuffer{}
		scfg.AccessLog = e.access
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.hs = &http.Server{Handler: serve.New(scfg).Handler()}
	go func() { e.done <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true,
	}}

	t0 := time.Now()
	body, _, _, err := e.post("/v1/graphs", "text/plain", e.netlist)
	e.uploadMS = ms(time.Since(t0))
	if err != nil {
		e.close()
		return nil, fmt.Errorf("upload: %w", err)
	}
	var up serve.UploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		e.close()
		return nil, fmt.Errorf("upload response: %w", err)
	}
	e.handle = up.Handle
	return e, nil
}

// close shuts the daemon down and waits for its serve goroutine to end.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timeout still closes the listener; Serve returns below
	<-e.done
	e.client.CloseIdleConnections()
}

// post sends one request, retrying 429 answers up to maxRetries times with
// a short backoff. It classifies the answer as streamed by its
// Content-Type (application/x-ndjson): Go sends any large body chunked, so
// the transfer encoding says nothing about streaming.
func (e *serveEnv) post(path, ctype string, body []byte) (data []byte, streamed bool, retries int, err error) {
	for {
		resp, err := e.client.Post(e.base+path, ctype, bytes.NewReader(body))
		if err != nil {
			return nil, false, retries, err
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, false, retries, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
			return data, mt == "application/x-ndjson", retries, nil
		case http.StatusTooManyRequests:
			if retries == maxRetries {
				return nil, false, retries, fmt.Errorf("%s: still answered 429 after %d retries", path, retries)
			}
			if resp.Header.Get("Retry-After") == "" {
				return nil, false, retries, fmt.Errorf("%s: 429 without Retry-After", path)
			}
			retries++
			time.Sleep(time.Duration(min(retries, 50)) * time.Millisecond)
		default:
			return nil, false, retries, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
}

// decodeStream reads an NDJSON job stream: it counts the lines and decodes
// the terminal "result" line into jr.
func decodeStream(body []byte, jr *serve.JobResponse) (lines int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	final := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		lines++
		var probe struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return lines, fmt.Errorf("stream line: %w", err)
		}
		switch probe.Type {
		case "result":
			if err := json.Unmarshal(line, jr); err != nil {
				return lines, err
			}
			final = true
		case "error":
			return lines, errors.New("stream error: " + probe.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return lines, err
	}
	if !final {
		return lines, errors.New("stream ended without a result line")
	}
	return lines, nil
}

// sample is one completed request of the load loop.
type sample struct {
	item       jobItem
	start, end time.Time
	elapsedMS  float64 // the daemon's scheduling time (JobResponse.elapsed_ms)
	bytes      int
	lines      int
	retries    int
}

func (s sample) latMS() float64 { return ms(s.end.Sub(s.start)) }

// loop drives the daemon closed-loop: serveClients clients walk the job
// sequence from one shared cursor, each sending its next request only after
// the previous answer arrived, until the window closes and the whole
// sequence has been sent at least once. Every answer is checked against its
// reference.
func (e *serveEnv) loop(seq []jobItem, refs map[string]*serveRef, window time.Duration, o *outcome) (samples []sample, wall time.Duration) {
	jobs0, uploads0, rejected0 := e.rec.Counter(obs.CtrServeJobs), e.rec.Counter(obs.CtrServeUploads), e.rec.Counter(obs.CtrServeRejected)
	var next atomic.Int64
	per := make([][]sample, serveClients)
	fails := make([][]string, serveClients)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) && !time.Now().Before(deadline) {
					return
				}
				s, err := e.request(seq[i%len(seq)], refs)
				if err != nil {
					fails[c] = append(fails[c], fmt.Sprintf("request %d: %v", i, err))
					continue
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for c := range per {
		samples = append(samples, per[c]...)
		for _, f := range fails[c] {
			o.fail("%s", f)
		}
	}
	o.attempted += len(samples)
	for _, f := range fails {
		o.attempted += len(f)
	}
	// The daemon's own counters must agree with the client's accounting.
	var jobs, uploads, retries int64
	for _, s := range samples {
		retries += int64(s.retries)
		if s.item.reupload {
			uploads++
		} else {
			jobs++
		}
	}
	o.check(e.rec.Counter(obs.CtrServeJobs)-jobs0 == jobs && e.rec.Counter(obs.CtrServeUploads)-uploads0 == uploads &&
		e.rec.Counter(obs.CtrServeRejected)-rejected0 == retries,
		"daemon counters (jobs %d, uploads %d, 429s %d) disagree with the clients' (%d, %d, %d)",
		e.rec.Counter(obs.CtrServeJobs)-jobs0, e.rec.Counter(obs.CtrServeUploads)-uploads0,
		e.rec.Counter(obs.CtrServeRejected)-rejected0, jobs, uploads, retries)
	return samples, wall
}

// request sends one sequence item and checks the answer.
func (e *serveEnv) request(it jobItem, refs map[string]*serveRef) (sample, error) {
	s := sample{item: it, start: time.Now()}
	if it.reupload {
		body, _, retries, err := e.post("/v1/graphs", "text/plain", e.netlist)
		s.end, s.retries, s.bytes = time.Now(), retries, len(body)
		if err != nil {
			return s, err
		}
		var up serve.UploadResponse
		if err := json.Unmarshal(body, &up); err != nil {
			return s, fmt.Errorf("re-upload response: %w", err)
		}
		if !up.Cached || up.Handle != e.handle {
			return s, fmt.Errorf("re-upload: cached=%v handle %s, want a cache hit on %s", up.Cached, up.Handle, e.handle)
		}
		return s, nil
	}
	specBody, err := json.Marshal(it.spec)
	if err != nil {
		return s, err
	}
	body, streamed, retries, err := e.post("/v1/graphs/"+e.handle+"/jobs", "application/json", specBody)
	s.end, s.retries, s.bytes = time.Now(), retries, len(body)
	if err != nil {
		return s, err
	}
	if streamed != it.spec.Stream {
		return s, fmt.Errorf("stream=%v but the answer's Content-Type says streamed=%v", it.spec.Stream, streamed)
	}
	var jr serve.JobResponse
	if streamed {
		s.lines, err = decodeStream(body, &jr)
	} else {
		err = json.Unmarshal(body, &jr)
	}
	if err != nil {
		return s, err
	}
	s.elapsedMS = jr.ElapsedMS
	if diff := refs[it.key].matches(&jr); diff != "" {
		return s, fmt.Errorf("%s: %s", it.key, diff)
	}
	return s, nil
}

// runServeMix is the serve-mix workload: two closed-loop client connections
// drive the serve handler over loopback with the seeded job sequence.
func runServeMix(cfg config) (*outcome, error) {
	o := newOutcome()
	if cfg.trace {
		return traceServeMix(cfg, o)
	}
	var env *serveEnv
	setup, err := timeSetups(func() error {
		if env != nil {
			env.close()
		}
		var err error
		env, err = startServe(cfg, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	o.op() // the upload
	seq := serveSequence(cfg.seed, env.d.Period)
	refs, err := serveReferences(env.d, seq)
	if err != nil {
		return nil, err
	}
	checkOracle(env.d, refs, o)

	samples, wall := env.loop(seq, refs, time.Duration(cfg.seconds*float64(time.Second)), o)
	var lat, sched []float64
	for _, s := range samples {
		if !s.item.reupload {
			lat = append(lat, s.latMS())
			sched = append(sched, s.elapsedMS)
		}
	}
	if len(lat) == 0 {
		return nil, errors.New("no job completed")
	}
	for _, k := range sortedKeys(refs) {
		ref := refs[k]
		o.metrics["early_wns_viol"] += violPct(ref.resp.WNSEarlyPS, ref.period)
		o.metrics["early_tns_viol"] += violPct(ref.resp.TNSEarlyPS, ref.period)
		o.metrics["late_wns_viol"] += violPct(ref.resp.WNSLatePS, ref.period)
		o.metrics["late_tns_viol"] += violPct(ref.resp.TNSLatePS, ref.period)
	}
	tl, pct := tail(lat)
	o.metrics["setup_s"] = setup
	o.metrics["op_p50_ms"] = median(lat)
	o.metrics["op_tail_ms"] = tl
	o.metrics["ops_per_s"] = float64(len(lat)) / wall.Seconds()
	o.metrics["hpwl_final_pct"] = 100 // the service never moves a cell
	o.metrics["peak_rss_mb"] = peakRSSMB()
	o.note("%d jobs + %d re-uploads in %.2f s over %d distinct specs, tail = p%.2f",
		len(lat), len(samples)-len(lat), wall.Seconds(), len(refs), pct)
	return o, nil
}

// traceServeMix is serve-mix's traced run: half the window untraced, half
// traced (client spans + the daemon's access log) on a second daemon, plus
// the per-kind in-process engine.Run times.
func traceServeMix(cfg config, o *outcome) (*outcome, error) {
	t0 := time.Now()
	if _, err := genDesign("superblue18", serveScale*cfg.scale, cfg.seed); err != nil {
		return nil, err
	}
	o.metrics["bench.generate_s"] = time.Since(t0).Seconds()
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)

	plainEnv, err := startServe(cfg, false)
	if err != nil {
		return nil, err
	}
	o.op()
	seq := serveSequence(cfg.seed, plainEnv.d.Period)
	refs, err := serveReferences(plainEnv.d, seq)
	if err != nil {
		plainEnv.close()
		return nil, err
	}
	plain, _ := plainEnv.loop(seq, refs, half, o)
	plainEnv.close()

	env, err := startServe(cfg, true)
	if err != nil {
		return nil, err
	}
	o.op()
	tr := newTracer()
	var samples []sample
	tr.do("serve.loop", func() { samples, _ = env.loop(seq, refs, half, o) })
	// A handler writes its access-log line after the client has its answer;
	// shutting down waits for every handler, so the log is complete.
	env.close()
	for _, s := range samples {
		name := "serve.job"
		if s.item.reupload {
			name = "serve.reupload"
		}
		tr.add(name, 0, s.start, s.end)
	}

	var lat, sched, over, kb, reup, mcmm []float64
	retries, lines := 0, 0
	for _, s := range samples {
		retries += s.retries
		if s.item.reupload {
			reup = append(reup, s.latMS())
			continue
		}
		lat = append(lat, s.latMS())
		sched = append(sched, s.elapsedMS)
		over = append(over, s.latMS()-s.elapsedMS)
		kb = append(kb, float64(s.bytes)/1024)
		lines += s.lines
		if len(s.item.spec.Corners) > 0 {
			mcmm = append(mcmm, s.latMS())
		}
	}
	var plainLat []float64
	for _, s := range plain {
		if !s.item.reupload {
			plainLat = append(plainLat, s.latMS())
		}
	}
	var wallMS, queueMS []float64
	sc := bufio.NewScanner(&env.access.buf)
	for sc.Scan() {
		var rec serve.AccessRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			o.fail("access log line: %v", err)
			continue
		}
		if rec.Route == "jobs" {
			wallMS = append(wallMS, rec.WallMS)
			queueMS = append(queueMS, rec.QueueMS)
		}
	}
	o.check(len(wallMS) == len(lat), "access log holds %d job lines for %d jobs", len(wallMS), len(lat))

	kindMS := map[string][]float64{}
	var measMS []float64
	for _, k := range sortedKeys(refs) {
		ref := refs[k]
		kindMS[ref.kind] = append(kindMS[ref.kind], ref.runMS)
		measMS = append(measMS, ref.measMS)
	}
	for _, k := range []string{"core", "iccss", "fpm", "mcmm"} {
		o.metrics["engine.run_"+k+"_ms"] = median(kindMS[k])
	}
	o.metrics["eval.measure_ms"] = mean(measMS)
	o.metrics["serve.sched_ms"] = median(sched)
	o.metrics["serve.wall_ms"] = median(wallMS)
	o.metrics["serve.queue_ms"] = mean(queueMS)
	o.metrics["serve.overhead_ms"] = median(over)
	o.metrics["serve.response_kb"] = mean(kb)
	o.metrics["serve.upload_ms"] = env.uploadMS
	o.metrics["serve.reupload_ms"] = median(reup)
	o.metrics["serve.retries_429"] = float64(retries)
	o.metrics["serve.stream_lines"] = float64(lines)
	o.metrics["serve.mcmm_ms"] = median(mcmm)
	if p := median(plainLat); p > 0 {
		o.metrics["obs.trace_overhead_pct"] = (median(lat) - p) / p * 100
	}
	o.note("untraced %d jobs p50 %.3f ms, traced %d jobs p50 %.3f ms", len(plainLat), median(plainLat), len(lat), median(lat))
	if err := tr.write(cfg.spans, cfg); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return o, nil
}
