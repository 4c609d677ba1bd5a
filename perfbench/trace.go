package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/budget"
	"repro/internal/colproto"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/policy"
	"repro/internal/registry"
)

// span is one timed call into a layer: its name, its interval relative to
// the tracer's start, the span that caused it (-1 for none) and the
// request it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes a span.
func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, req int, f func()) {
	i := t.begin(name, parent, req)
	f()
	t.end(i)
}

// selfTimes returns, per span name, each span's duration minus the part
// its child spans cover, in seconds.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e9)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSelectSeconds is how long each /select series of the traced run
// lasts (the daemon's round trips over the stream and over the tiny
// kernel, the untraced and the traced replay), spread over four quarters.
const traceSelectSeconds = 2

// traceWorkload is a traced run: it replays the novel /select stream
// (novel set) or the known one, then every other layer.
func traceWorkload(e *env, r *run, novel bool) error {
	if !novel {
		return traceAll(e, r, knownStream(e.seed), false)
	}
	ks, err := newNovelGen(e.seed).take(1500)
	if err != nil {
		return err
	}
	return traceAll(e, r, novelStream(e.seed, ks), true)
}

// traceAll is the traced run: it times every layer's public functions
// in-process on the workload's inputs (the /select stream given, the
// seed's novel kernels, regimes and budget) and measures the /select
// round trip of a real daemon for the stage split. Every per-layer metric
// is reported on every workload.
func traceAll(e *env, r *run, reqs []selectReq, novel bool) error {
	t := newTracer()
	ref, err := loadReference(e.snapshot)
	if err != nil {
		return err
	}
	steps := []func() error{
		func() error { return traceRegistryLoad(e, r, t) },
		func() error { return traceSelect(e, r, t, ref, reqs, novel) },
		func() error { return traceSweepAndBatch(e, r, t, ref) },
		func() error { return traceAdapt(e, r, t) },
		func() error { return traceBudget(e, r, t) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	path := filepath.Join(filepath.Dir(e.work), "trace", fmt.Sprintf("spans-seed%d.jsonl", e.seed))
	if err := t.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return nil
}

// setSelf reports the median self time of a span name in the given unit.
func setSelf(r *run, t *tracer, span, metric, unit string) float64 {
	scale := map[string]float64{"s": 1, "ms": 1e3, "us": 1e6}[unit]
	v := scale * median(t.selfTimes()[span])
	r.set(metric, unit, v)
	return v
}

func traceRegistryLoad(e *env, r *run, t *tracer) error {
	for i := 0; i < 3; i++ {
		var err error
		t.timed("registry.load", -1, -1, func() {
			var store *registry.Store
			if store, err = registry.Open(e.snapshot); err == nil {
				_, _, err = store.Load(device, "")
			}
		})
		if !r.op(err) {
			return err
		}
	}
	setSelf(r, t, "registry.load", "registry.load_ms", "ms")
	return nil
}

// newGovernor builds the serving governor gpufreqd installs for the
// snapshot: a predictor plus the publish-time front table.
func newGovernor(ref *reference) *policy.Governor {
	return policy.NewGovernorWithFronts(engine.NewPredictor(ref.pred.Core().Models, ref.ladder, engine.Options{}), 0, ref.fronts)
}

// traceSelect measures the real daemon's /select round trip over the
// stream and over a tiny kernel, replays the stream in-process (extract,
// decide) with an untraced twin of the replay for the tracing overhead,
// and closes the stage split.
func traceSelect(e *env, r *run, t *tracer, ref *reference, reqs []selectReq, novel bool) error {
	// Each quarter of a series covers a quarter of the stream's requests
	// (the known stream cycles) for a quarter of the series' time.
	dur := traceSelectSeconds * time.Second / 4
	replay := func(gov *policy.Governor, traced bool, quarter int) (int, time.Duration, error) {
		start := time.Now()
		n, base := 0, quarter*len(reqs)/4
		for ; time.Since(start) < dur && (!novel || n < len(reqs)/4); n++ {
			i := base + n
			q := reqs[i%len(reqs)]
			var st features.Static
			var err error
			if !traced {
				if st, err = features.ExtractSource(q.K.Source, q.K.Name); err == nil {
					_, err = gov.Decide(st, q.Spec)
				}
			} else {
				root := t.begin("gpufreqd.select", -1, i)
				t.timed("features.extract", root, i, func() { st, err = features.ExtractSource(q.K.Source, q.K.Name) })
				if err == nil {
					t.timed("policy.decide", root, i, func() { _, err = gov.Decide(st, q.Spec) })
				}
				t.end(root)
			}
			if !r.op(err) {
				return n, 0, err
			}
		}
		return n, time.Since(start), nil
	}
	warm := func(gov *policy.Governor) {
		if !novel {
			for _, q := range reqs {
				_, _ = gov.Decide(q.K.Static, q.Spec) // warm-up; the replay decides the same requests and counts errors
			}
		}
	}
	tiny := newSelectReq(tinyKernel, policy.Spec{Name: policy.EDP})
	srv, err := startSelectDaemon(e, r, reqs, novel, tiny)
	if err != nil {
		return err
	}
	defer srv.stop()
	// The daemon's round trips over the stream and over the tiny kernel,
	// the untraced twin and the traced replay alternate in quarters over
	// the same requests, each with its own governor, so all four see the
	// same machine; the difference per request between the two replays is
	// the tracing overhead.
	plain, gov := newGovernor(ref), newGovernor(ref)
	warm(plain)
	warm(gov)
	var rtt, tinyRTT roundTrips
	var nPlain, nTraced int
	var dPlain, dTraced, cPlain time.Duration
	for q := 0; q < 4; q++ {
		calls, base := math.MaxInt, q*len(reqs)/4
		if novel {
			calls = len(reqs) / 4
		}
		if err := rtt.measure(r, srv, calls, dur, func(i int) []byte { return reqs[(base+i)%len(reqs)].Body }); err != nil {
			return err
		}
		if err := tinyRTT.measure(r, srv, math.MaxInt, dur, func(int) []byte { return tiny.Body }); err != nil {
			return err
		}
		c0 := selfCPU()
		n, d, err := replay(plain, false, q)
		if err != nil {
			return err
		}
		cPlain += selfCPU() - c0
		nPlain, dPlain = nPlain+n, dPlain+d
		if n, d, err = replay(gov, true, q); err != nil {
			return err
		}
		nTraced, dTraced = nTraced+n, dTraced+d
	}
	plainCPU := float64(cPlain) / 1e3 / float64(nPlain)
	s1 := gov.Stats()
	extract := setSelf(r, t, "features.extract", "features.extract_us", "us")
	decide := setSelf(r, t, "policy.decide", "policy.decide_us", "us")
	// Ratios over the governor's life, warm-up included: which memo layer
	// resolved each decision.
	hits, misses := float64(s1.Hits), float64(s1.Misses)
	r.set("policy.decision_hit_ratio", "ratio", hits/(hits+misses))
	fronts := float64(s1.FrontHits)
	sweeps := float64(s1.SweepHits + s1.SweepMisses)
	frontRatio := 0.0
	if fronts+sweeps > 0 {
		frontRatio = fronts / (fronts + sweeps)
	}
	r.set("policy.front_hit_ratio", "ratio", frontRatio)
	overhead := 1e6 * (dTraced.Seconds()/float64(nTraced) - dPlain.Seconds()/float64(nPlain))
	r.set("trace.overhead_us", "us", overhead)

	// Allocations per extraction, over the stream's first kernels.
	n := min(200, len(reqs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range reqs[:n] {
		_, _ = features.ExtractSource(q.K.Source, q.K.Name) // parsed above
	}
	runtime.ReadMemStats(&m1)
	r.set("features.extract_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/float64(n))

	// The residual: the tiny kernel's round trip less its in-process
	// extraction and (cached) decision.
	tinySt, err := features.ExtractSource(tiny.K.Source, tiny.K.Name)
	if !r.op(err) {
		return err
	}
	tinyExtract, err := medianCallUS(2000, func() error { _, err := features.ExtractSource(tiny.K.Source, tiny.K.Name); return err })
	if err != nil {
		return err
	}
	tinyDecide, err := medianCallUS(2000, func() error { _, err := gov.Decide(tinySt, tiny.Spec); return err })
	if err != nil {
		return err
	}
	rttUS := median(rtt.us)
	residual := median(tinyRTT.us) - tinyExtract - tinyDecide
	r.set("gpufreqd.select_residual_us", "us", residual)
	sum := extract + decide + residual
	fmt.Fprintf(os.Stderr, "perfbench: /select stage split: extract %.1f µs + decide %.1f µs + residual (HTTP, JSON, loopback: the tiny kernel's round trip less its layers) %.1f µs = %.1f µs; daemon round trip p50 %.1f µs (%+.1f%%, tolerance ±%.0f%%); tracing overhead %.2f µs/request\n",
		extract, decide, residual, sum, rttUS, 100*(sum/rttUS-1), 100*splitTolerance, overhead)
	r.set("gpufreqd.select_unattributed_us", "us", rttUS-sum)
	r.check(math.Abs(sum/rttUS-1) <= splitTolerance, "/select stage split %.1f µs is %+.1f%% off the daemon's round trip %.1f µs (tolerance ±%.0f%%)",
		sum, 100*(sum/rttUS-1), rttUS, 100*splitTolerance)
	// The same split in CPU time: this process's CPU per untraced replayed
	// request plus the daemon's CPU per tiny /select, against the daemon's
	// CPU per /select over the stream. Where it closes and the wall split
	// does not, the unattributed wall time is waiting in the daemon, not
	// work the replay leaves out.
	cpuSum := plainCPU + tinyRTT.cpuUS()
	fmt.Fprintf(os.Stderr, "perfbench: /select CPU split: extract+decide %.1f µs + tiny /select %.1f µs = %.1f µs; daemon CPU per /select %.1f µs (%+.1f%%)\n",
		plainCPU, tinyRTT.cpuUS(), cpuSum, rtt.cpuUS(), 100*(cpuSum/rtt.cpuUS()-1))
	return nil
}

// splitTolerance is how far the /select stage split (layer self times plus
// the HTTP/JSON residual) may land from the daemon's measured round trip.
const splitTolerance = 0.40

// tinyKernel is a minimal kernel whose extraction and (cached) decision
// cost next to nothing, so its /select round trip is the daemon's HTTP,
// JSON and loopback cost.
var tinyKernel = kernel{Name: "scale", Source: "__kernel void scale(__global float* o, float x) { int i = get_global_id(0); o[i] = x * o[i]; }"}

// roundTrips accumulates a series of /select calls to a daemon: each
// round trip in µs and the daemon's CPU over them.
type roundTrips struct {
	us  []float64
	cpu time.Duration
}

// cpuUS is the daemon's CPU per call, in µs.
func (rt *roundTrips) cpuUS() float64 { return float64(rt.cpu) / 1e3 / float64(len(rt.us)) }

// measure sends the bodies body(0), body(1), ... in a closed loop for at
// most dur and n calls.
func (rt *roundTrips) measure(r *run, d *daemon, n int, dur time.Duration, body func(i int) []byte) error {
	cpu0, err := d.cpu()
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < n && time.Since(start) < dur; i++ {
		t0 := time.Now()
		status, resp, err := post(d.url+"/select", "application/json", body(i))
		if err = httpErr(status, resp, err); !r.op(err) {
			return err
		}
		rt.us = append(rt.us, float64(time.Since(t0))/1e3)
	}
	cpu1, err := d.cpu()
	rt.cpu += cpu1 - cpu0
	return err
}

// startSelectDaemon launches gpufreqd on the serve snapshot for the stage
// split and, for known kernels, sends the stream once as a warm-up.
func startSelectDaemon(e *env, r *run, reqs []selectReq, novel bool, tiny selectReq) (*daemon, error) {
	models := filepath.Join(e.work, "models")
	if err := copyTree(e.snapshot, models); err != nil {
		return nil, err
	}
	d, err := startDaemon(e.bin, "gpufreqd-trace", e.work, "-model-dir", models, "-device", device)
	if err != nil {
		return nil, err
	}
	if err := waitSelect(d, tiny.Body, 60*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	if !novel {
		for _, q := range reqs {
			status, body, err := post(d.url+"/select", "application/json", q.Body)
			if err = httpErr(status, body, err); !r.op(err) {
				d.stop()
				return nil, err
			}
		}
	}
	return d, nil
}

// selfCPU is this process's CPU time so far (user and system).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// medianCallUS is the median duration of n calls of f, in µs.
func medianCallUS(n int, f func() error) (float64, error) {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us), nil
}

// traceSweepAndBatch times the live ladder sweep of novel kernels and the
// batch plane's layers on frames of novel kernels.
func traceSweepAndBatch(e *env, r *run, t *tracer, ref *reference) error {
	gen := newNovelGen(e.seed ^ 0x747263)
	ks, err := gen.take(32)
	if err != nil {
		return err
	}
	pred := engine.NewPredictor(ref.pred.Core().Models, ref.ladder, engine.Options{})
	m0 := pred.Stats().Misses
	for i, k := range ks {
		t.timed("engine.sweep", -1, i, func() { pred.ParetoSet(k.Static) })
	}
	setSelf(r, t, "engine.sweep", "engine.sweep_ms", "ms")
	// Every cache miss evaluates both SVRs once.
	r.set("engine.svr_evals", "count", 2*float64(pred.Stats().Misses-m0)/float64(len(ks)))

	frames, err := makeFrames(gen, 16)
	if err != nil {
		return err
	}
	var cols colproto.Columns
	var out colproto.Fronts
	var buf []byte
	scratch := engine.GetBatchScratch()
	defer engine.PutBatchScratch(scratch)
	var sts []features.Static
	for i, f := range frames {
		root := t.begin("batch.frame", -1, i)
		t.timed("colproto.parse", root, i, func() { err = cols.ParseBinary(f.body) })
		if !r.op(err) {
			return err
		}
		sts = cols.StaticsInto(sts[:0])
		var fronts [][]core.Prediction
		t.timed("engine.batch_frame", root, i, func() { fronts = pred.PredictFrontsInto(scratch, sts) })
		out.Reset()
		out.Version = ref.version
		for _, fr := range fronts {
			out.AppendFront(fr)
		}
		t.timed("colproto.encode", root, i, func() { buf = out.AppendBinary(buf[:0]) })
		t.end(root)
	}
	setSelf(r, t, "colproto.parse", "colproto.parse_us", "us")
	setSelf(r, t, "engine.batch_frame", "engine.batch_frame_ms", "ms")
	setSelf(r, t, "colproto.encode", "colproto.encode_us", "us")
	return nil
}

// traceAdapt replays the first drift episode in-process: ingest through an
// adaptation controller with a WAL, the drift detector's latency under the
// daemon defaults, the base matrix, the warm fit, publish-time fronts and
// the save; then it times the snapshot push of the retrained version to a
// launched fleet.
func traceAdapt(e *env, r *run, t *tracer) error {
	ctx := context.Background()
	_, obs, err := fleetInputs(e.seed, 1)
	if err != nil {
		return err
	}
	models := filepath.Join(e.work, "trace-models")
	if err := copyTree(e.snapshot, models); err != nil {
		return err
	}
	store, err := registry.Open(models)
	if err != nil {
		return err
	}
	active, _, man, err := store.LoadFull(device, "")
	if err != nil {
		return err
	}
	dev, err := ladderDevice()
	if err != nil {
		return err
	}
	eng := engine.New(measure.NewHarness(nvml.NewDevice(dev)), engine.Options{})
	eng.SetModels(active)
	current := engine.NewPredictor(active, dev.Ladder, engine.Options{})
	wal, err := adapt.OpenWAL(adapt.WALConfig{Dir: filepath.Join(e.work, "trace-wal")})
	if err != nil {
		return err
	}
	defer wal.Close()
	trainer := adapt.NewEngineTrainer(eng, nil)
	ctl := adapt.New(adapt.Config{}, adapt.Deps{
		Device:  device,
		Store:   store,
		WAL:     wal,
		Current: func() (*engine.Predictor, string, bool) { return current, man.Version, true },
		Install: func(string, *core.Models) error { return nil },
		Trainer: trainer,
	})
	for i, rep := range obs[0] {
		t.timed("adapt.observe", -1, i, func() { _, err = ctl.Observe(rep.Obs) })
		if !r.op(err) {
			return err
		}
	}
	setSelf(r, t, "adapt.observe", "adapt.observe_us", "us")
	driftAt, err := driftLatency(e.seed, store, man.Version, current)
	if err != nil {
		return err
	}
	r.set("adapt.drift_after_obs", "count", float64(driftAt))

	wal2, err := adapt.OpenWAL(adapt.WALConfig{Dir: filepath.Join(e.work, "trace-wal2")})
	if err != nil {
		return err
	}
	defer wal2.Close()
	for i, rep := range obs[0] {
		t.timed("adapt.wal_append", -1, i, func() { err = wal2.Append(rep.Obs) })
		if !r.op(err) {
			return err
		}
	}
	setSelf(r, t, "adapt.wal_append", "adapt.wal_append_us", "us")

	t.timed("adapt.base_matrix", -1, -1, func() { _, err = eng.BuildTrainingSet(ctx, engine.TrainingKernels()) })
	if !r.op(err) {
		return err
	}
	setSelf(r, t, "adapt.base_matrix", "adapt.base_matrix_s", "s")
	// The trainer builds its own copy of the base matrix once; build it
	// outside the timed fit, as a long-running control plane has.
	if _, _, err := trainer.Fit(ctx, nil, active); !r.op(err) {
		return err
	}
	var samples []core.Sample
	for i, rep := range obs[0] {
		if (i+1)%adapt.DefaultHoldoutEvery == 0 {
			continue // held out, as the controller does
		}
		for w := 0; w < adapt.DefaultObservationWeight; w++ {
			samples = append(samples, rep.Obs.Sample())
		}
	}
	var fitted *core.Models
	var tr registry.Training
	t.timed("svm.warm_fit", -1, -1, func() { fitted, tr, err = trainer.Fit(ctx, samples, active) })
	if !r.op(err) {
		return err
	}
	setSelf(r, t, "svm.warm_fit", "svm.warm_fit_s", "s")
	r.set("svm.warm_iters", "count", float64(fitted.Speedup.Iters+fitted.Energy.Iters))
	var fronts *registry.Fronts
	t.timed("registry.fronts", -1, -1, func() {
		fronts = registry.ComputeFronts(engine.NewPredictor(fitted, dev.Ladder, engine.Options{}), engine.TrainingKernels())
	})
	setSelf(r, t, "registry.fronts", "registry.fronts_s", "s")
	var saved registry.Manifest
	t.timed("registry.save", -1, -1, func() { saved, err = store.SaveWithFronts(device, "", fitted, tr, fronts) })
	if !r.op(err) {
		return err
	}
	setSelf(r, t, "registry.save", "registry.save_ms", "ms")
	return tracePush(e, r, t, models, man, saved)
}

// driftLimit bounds the observations driftLatency feeds.
const driftLimit = 4 * episodeObs

// driftLatency feeds observations of the drift-recovery experiment's shift
// (caches cold, accesses scattered) to a detect-only controller with the
// daemon's default drift settings and returns how many it took to signal
// drift (one more than it fed when it never did).
func driftLatency(seed int64, store *registry.Store, version string, pred *engine.Predictor) (int, error) {
	dev, err := ladderDevice()
	if err != nil {
		return 0, err
	}
	reg := regime{"cold-scattered", 0, 0.12} // freqbench -exp adapt's shift
	reps, err := measureRegime(dev, reg, rand.New(rand.NewSource(seed^0x64726674)), driftLimit, 0)
	if err != nil {
		return 0, err
	}
	ctl := adapt.New(adapt.Config{}, adapt.Deps{
		Device:  device,
		Store:   store,
		Current: func() (*engine.Predictor, string, bool) { return pred, version, true },
	})
	for i, rep := range reps {
		res, err := ctl.Observe(rep.Obs)
		if err != nil {
			return 0, err
		}
		if res.Drift.Drift {
			return i + 1, nil
		}
	}
	return len(reps) + 1, nil
}

// tracePush launches a fleet on the traced store and times, from outside,
// each activation of the retrained version (and back) until the last
// agent reports it.
func tracePush(e *env, r *run, t *tracer, models string, base, retrained registry.Manifest) error {
	f, _, err := launchFleet(e, "trace", models)
	if err != nil {
		return err
	}
	defer f.group().stop()
	control := f.control
	targets := []registry.Manifest{retrained, base, retrained}
	for i, m := range targets {
		status, body, err := post(control.url+"/models/"+m.Version+"/activate", "application/json", nil)
		if !r.op(httpErr(status, body, err)) {
			return httpErr(status, body, err)
		}
		var werr error
		t.timed("fleet.push", -1, i, func() { werr = f.waitAgents(m.Hash, 60*time.Second, time.Millisecond) })
		if !r.op(werr) {
			return werr
		}
	}
	setSelf(r, t, "fleet.push", "fleet.push_ms", "ms")
	return nil
}

// traceBudget times the fleet budget layers on the problem the control
// plane solves for the fleet before any traffic: every agent over a
// uniform mix of the active snapshot's front table.
func traceBudget(e *env, r *run, t *tracer) error {
	store, err := registry.Open(e.snapshot)
	if err != nil {
		return err
	}
	var fr *registry.Fronts
	for i := 0; i < 3; i++ {
		t.timed("registry.load_fronts", -1, i, func() { fr, err = store.LoadFronts(device, "") })
		if !r.op(err) {
			return err
		}
	}
	setSelf(r, t, "registry.load_fronts", "registry.load_fronts_ms", "ms")
	var items []budget.Item
	feats := map[string]features.Static{}
	for _, node := range agentNodes {
		for _, k := range fr.Kernels {
			items = append(items, budget.Item{Node: node, Kernel: k.Name, Weight: 1 / float64(len(fr.Kernels)), Front: k.Pareto})
			feats[k.Name] = k.Features
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].Node < items[j].Node })
	r.set("budget.items", "count", float64(len(items)))
	b := budget.Budget{Total: budgetTotal(e.seed), Unit: budget.UnitPower}
	arms := []struct {
		span  string
		solve func([]budget.Item, budget.Budget) (budget.Plan, error)
	}{
		{"budget.solve", budget.Solve},
		{"budget.uniform", budget.SolveUniform},
		{"budget.greedy", budget.SolveGreedy},
		{"budget.perdevice", budget.SolvePerDevice},
	}
	var plan budget.Plan
	for i := 0; i < 3; i++ {
		for _, arm := range arms {
			var p budget.Plan
			t.timed(arm.span, -1, i, func() { p, err = arm.solve(items, b) })
			if !r.op(err) {
				return err
			}
			if arm.span == "budget.solve" {
				plan = p
			}
		}
		t.timed("budget.tables", -1, i, func() {
			var tables map[string]*budget.DecisionTable
			tables, err = budget.Tables(&plan, func(string) string { return device },
				func(_, kernel string) (features.Static, bool) { f, ok := feats[kernel]; return f, ok })
			for _, tb := range tables {
				if err == nil {
					_, err = budget.EncodeTable(tb)
				}
			}
		})
		if !r.op(err) {
			return err
		}
	}
	for _, arm := range arms {
		setSelf(r, t, arm.span, arm.span+"_ms", "ms")
	}
	setSelf(r, t, "budget.tables", "budget.tables_ms", "ms")
	return nil
}
