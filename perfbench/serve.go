package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/bench"
	"repro/internal/colproto"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/policy"
	"repro/internal/registry"
)

// setupLaunches is how many times a serve run launches its daemon, and
// fleetLaunches how many times a fleet run launches its fleet; setup_s is
// the median launch (plus, for fleet-adapt, the first episode).
const (
	setupLaunches = 5
	fleetLaunches = 3
)

// reference is the in-process view of the serve snapshot the checks
// compare against: the published front table and a predictor over the
// snapshot's models.
type reference struct {
	version string
	fronts  map[features.Static][]core.Prediction
	pred    *engine.Predictor
	ladder  *freq.Ladder
}

func loadReference(modelDir string) (*reference, error) {
	store, err := registry.Open(modelDir)
	if err != nil {
		return nil, err
	}
	models, fronts, man, err := store.LoadFull(device, "")
	if err != nil {
		return nil, fmt.Errorf("loading the serve snapshot: %w", err)
	}
	dev, err := ladderDevice()
	if err != nil {
		return nil, err
	}
	ref := &reference{version: man.Version, pred: engine.NewPredictor(models, dev.Ladder, engine.Options{}), ladder: dev.Ladder}
	if fronts != nil {
		ref.fronts = fronts.Map()
	}
	return ref, nil
}

// front is the Pareto set the daemon should decide over: the published
// front when the snapshot has one for the kernel, a live sweep otherwise.
func (ref *reference) front(st features.Static) []core.Prediction {
	if set, ok := ref.fronts[st]; ok {
		return set
	}
	return ref.pred.ParetoSet(st)
}

// selectResp is the part of a /select response the checks read.
type selectResp struct {
	Results []struct {
		Decision *policy.Decision `json:"decision"`
	} `json:"results"`
}

// checkDecision checks one /select answer: the chosen configuration is on
// the device ladder, a feasible constrained decision meets its constraint,
// and (when exact is set) the decision equals policy.Choose over the
// reference front.
func checkDecision(r *run, ref *reference, req selectReq, body []byte, exact bool) {
	var resp selectResp
	if !r.check(json.Unmarshal(body, &resp) == nil, "%s: undecodable /select answer", req.K.Name) {
		return
	}
	if !r.check(len(resp.Results) == 1 && resp.Results[0].Decision != nil, "%s: /select answered no decision (%s)", req.K.Name, string(body)) {
		return
	}
	d := *resp.Results[0].Decision
	spec := req.Spec.WithDefaults()
	r.check(ref.ladder.Supported(d.Chosen.Config) && !d.Chosen.MemLHeuristic, "%s: chosen %v is not on the ladder", req.K.Name, d.Chosen.Config)
	if d.Feasible {
		switch spec.Name {
		case policy.MinEnergy:
			r.check(d.Chosen.Speedup >= 1-spec.MaxSlowdown, "%s: feasible min-energy speedup %.4f < %.2f", req.K.Name, d.Chosen.Speedup, 1-spec.MaxSlowdown)
		case policy.MaxPerf:
			r.check(d.Chosen.NormEnergy <= spec.EnergyBudget, "%s: feasible max-perf energy %.4f > %.2f", req.K.Name, d.Chosen.NormEnergy, spec.EnergyBudget)
		}
	}
	if !exact {
		return
	}
	want, err := policy.Choose(ref.front(req.K.Static), req.Spec)
	if !r.check(err == nil, "%s: reference decision: %v", req.K.Name, err) {
		return
	}
	// Compare as the wire carries it.
	b, _ := json.Marshal(want) // cannot fail: plain values
	var wantWire policy.Decision
	_ = json.Unmarshal(b, &wantWire) // round-trips its own encoding
	r.check(reflect.DeepEqual(d, wantWire), "%s/%s: served %+v, reference %+v", req.K.Name, spec.Name, d, wantWire)
}

// launchServe launches the serve daemon setupLaunches times, timing exec
// to the first /select answered with the probe requests; it keeps the last
// daemon running and returns it with the median launch time.
func launchServe(e *env, r *run, probes []selectReq) (*daemon, float64, error) {
	models := filepath.Join(e.work, "models")
	if err := copyTree(e.snapshot, models); err != nil {
		return nil, 0, err
	}
	var times []float64
	var d *daemon
	for i := 0; i < setupLaunches; i++ {
		var err error
		d, err = startDaemon(e.bin, fmt.Sprintf("gpufreqd-%d", i), e.work, "-model-dir", models, "-device", device)
		if err != nil {
			return nil, 0, err
		}
		if err := waitSelect(d, probes[i%len(probes)].Body, 60*time.Second); err != nil {
			d.stop()
			return nil, 0, err
		}
		times = append(times, time.Since(d.started).Seconds())
		r.op(nil)
		if i < setupLaunches-1 {
			d.stop()
		}
	}
	return d, median(times), nil
}

// waitSelect polls /select until the daemon answers it.
func waitSelect(d *daemon, body []byte, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		status, resp, err := post(d.url+"/select", "application/json", body)
		if err == nil && status == 200 {
			return nil
		}
		if !d.alive() {
			return fmt.Errorf("%s exited before serving (see its log)", d.name)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not answer /select within %s: %v %d %s", d.name, limit, err, status, resp)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// loopStats is one closed-loop timed phase: per-operation latencies and,
// per tenth of the phase, the daemons' CPU per operation.
type loopStats struct {
	latMS     []float64
	cpuPerOp  []float64 // seconds per operation, per chunk
	elapsed   time.Duration
	cpu       time.Duration
	completed int
}

// closedLoop runs do(i) back to back for dur, one operation at a time and
// at least minOps times, reading the daemons' CPU at each tenth of the
// phase. It stops early when do reports that its inputs ran out (more ==
// false).
func closedLoop(g group, dur time.Duration, do func(i int) (more bool, err error), minOps int, r *run) (loopStats, error) {
	var ls loopStats
	chunk := dur / 10
	cpu0, err := g.cpu()
	if err != nil {
		return ls, err
	}
	start := time.Now()
	chunkStart, chunkCPU, chunkOps := start, cpu0, 0
	flush := func(now time.Time) error {
		c, err := g.cpu()
		if err != nil {
			return err
		}
		if chunkOps > 0 {
			ls.cpuPerOp = append(ls.cpuPerOp, (c-chunkCPU).Seconds()/float64(chunkOps))
		}
		chunkStart, chunkCPU, chunkOps = now, c, 0
		return nil
	}
	for i := 0; ; i++ {
		t0 := time.Now()
		if t0.Sub(start) >= dur && i >= minOps {
			break
		}
		more, err := do(i)
		now := time.Now()
		if r.op(err) {
			ls.latMS = append(ls.latMS, float64(now.Sub(t0))/1e6)
			ls.completed++
			chunkOps++
		}
		if now.Sub(chunkStart) >= chunk {
			if err := flush(now); err != nil {
				return ls, err
			}
		}
		if !more {
			break
		}
	}
	end := time.Now()
	if err := flush(end); err != nil {
		return ls, err
	}
	ls.elapsed = end.Sub(start)
	c, err := g.cpu()
	if err != nil {
		return ls, err
	}
	ls.cpu = c - cpu0
	return ls, nil
}

// report prints the phase's round trips and rate and sets its CPU metric.
// The wall-clock figures go to standard error only: on the shared machine
// the benchmark was built on they swing by a factor of two to three
// between runs minutes apart, past any bound a run could be held to.
func (ls loopStats) report(r *run, label string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s; %.0f ops/s; daemon CPU %.3f ms/op over %.1f s\n",
		label, tailLine(ls.latMS), float64(ls.completed)/ls.elapsed.Seconds(),
		1e3*ls.cpu.Seconds()/math.Max(1, float64(ls.completed)), ls.elapsed.Seconds())
	r.set("op_cpu_ms", "ms", 1e3*median(ls.cpuPerOp))
}

// selectPhase runs the warm-up pass and the timed /select loop over a
// request list (cycling when cycle is set), then checks every answer.
func selectPhase(e *env, r *run, d *daemon, ref *reference, warm, reqs []selectReq, cycle bool, exactEvery int) error {
	for _, q := range warm {
		status, body, err := post(d.url+"/select", "application/json", q.Body)
		if r.op(httpErr(status, body, err)) {
			checkDecision(r, ref, q, body, true)
		}
	}
	bodies := make([][]byte, 0, 1<<14)
	idx := make([]int, 0, 1<<14)
	ls, err := closedLoop(group{d}, time.Duration(e.seconds*float64(time.Second)), func(i int) (bool, error) {
		j := i
		if cycle {
			j = i % len(reqs)
		}
		status, body, err := post(d.url+"/select", "application/json", reqs[j].Body)
		if err = httpErr(status, body, err); err == nil {
			bodies = append(bodies, body)
			idx = append(idx, j)
		}
		return cycle || i+1 < len(reqs), err
	}, 1, r)
	if err != nil {
		return err
	}
	if !cycle && ls.completed >= len(reqs) {
		fmt.Fprintln(os.Stderr, "perfbench: note: the novel kernel pool ran out before the phase ended")
	}
	ls.report(r, "select")
	checked := map[int]bool{}
	for n, j := range idx {
		exact := false
		if cycle {
			exact = !checked[j]
			checked[j] = true
		} else {
			exact = n%exactEvery == 0
		}
		checkDecision(r, ref, reqs[j], bodies[n], exact)
	}
	return nil
}

// httpErr turns a transport error or a non-200 answer into an error.
func httpErr(status int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if status != 200 {
		if len(body) > 200 {
			body = body[:200]
		}
		return fmt.Errorf("HTTP %d: %s", status, body)
	}
	return nil
}

// finishDaemons records peak RSS and stops the daemons.
func finishDaemons(r *run, g group) error {
	rss, err := g.peakRSS()
	g.stop()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MB", rss)
	return nil
}

func runServeKnown(e *env, r *run) error {
	reqs := knownStream(e.seed)
	ref, err := loadReference(e.snapshot)
	if err != nil {
		return err
	}
	d, setup, err := launchServe(e, r, reqs)
	if err != nil {
		return err
	}
	defer d.stop()
	r.set("setup_s", "s", setup)
	if err := selectPhase(e, r, d, ref, reqs, reqs, true, 1); err != nil {
		return err
	}
	if err := checkTestEnergy(r, d); err != nil {
		return err
	}
	return finishDaemons(r, group{d})
}

// checkTestEnergy asks for the default min-energy decision of each of the
// 12 test applications and measures it on the simulated device: the mean
// measured normalized energy at the chosen configurations must be below 1.
func checkTestEnergy(r *run, d *daemon) error {
	dev, err := ladderDevice()
	if err != nil {
		return err
	}
	h := measure.NewHarness(nvml.NewDevice(dev))
	var sum float64
	apps := bench.All()
	for _, app := range apps {
		q := newSelectReq(kernel{Name: app.KernelName, Source: app.Source, Static: app.Features()}, policy.Spec{Name: policy.MinEnergy})
		status, body, err := post(d.url+"/select", "application/json", q.Body)
		if !r.op(httpErr(status, body, err)) {
			continue
		}
		var resp selectResp
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != 1 || resp.Results[0].Decision == nil {
			r.check(false, "%s: no min-energy decision", app.Name)
			continue
		}
		base, err := h.Baseline(app.Profile())
		if err != nil {
			return err
		}
		rel, err := h.MeasureRelative(app.Profile(), resp.Results[0].Decision.Chosen.Config, base)
		if err != nil {
			return err
		}
		sum += rel.NormEnergy
	}
	mean := sum / float64(len(apps))
	fmt.Fprintf(os.Stderr, "perfbench: test applications at min-energy choices: mean measured normalized energy %.4f\n", mean)
	r.check(mean < 1, "mean measured normalized energy at min-energy choices %.4f >= 1", mean)
	return nil
}

// novelPool is the number of novel kernels a serve-novel run generates:
// enough for 1500 /select per second of phase.
func novelPool(seconds float64) int { return int(seconds*1500) + 1 }

func runServeNovel(e *env, r *run) error {
	gen := newNovelGen(e.seed)
	warmK, err := gen.take(setupLaunches + 20)
	if err != nil {
		return err
	}
	ks, err := gen.take(novelPool(e.seconds))
	if err != nil {
		return err
	}
	warm := novelStream(e.seed+1, warmK)
	reqs := novelStream(e.seed, ks)
	ref, err := loadReference(e.snapshot)
	if err != nil {
		return err
	}
	d, setup, err := launchServe(e, r, warm)
	if err != nil {
		return err
	}
	defer d.stop()
	r.set("setup_s", "s", setup)
	if err := selectPhase(e, r, d, ref, warm[setupLaunches:], reqs, false, 8); err != nil {
		return err
	}
	return finishDaemons(r, group{d})
}

// batchKernels is the batch frame size.
const batchKernels = 32

// framePool is the number of frames a batch-novel run generates for its
// timed phase: 60 per second of phase, 1.5 to 2 times the rates measured
// when the benchmark was built (generating them is most of a run's time
// outside the timed phase). No frame is sent twice, so a memo in the batch plane would find
// nothing to reuse.
func framePool(seconds float64) int { return int(seconds*60) + 1 }

// batchWarmFrames is the number of untimed warm-up frames.
const batchWarmFrames = 8

// frame is one /predict/batch request.
type frame struct {
	sts  []features.Static
	body []byte
}

func makeFrames(gen *novelGen, n int) ([]frame, error) {
	out := make([]frame, 0, n)
	for len(out) < n {
		// A few frames at a time, so the generated sources do not all
		// stay in memory.
		m := min(n-len(out), 32)
		ks, err := gen.take(m * batchKernels)
		if err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			var f frame
			var cols colproto.Columns
			cols.Reset()
			for _, k := range ks[i*batchKernels : (i+1)*batchKernels] {
				cols.Append(k.Name, k.Static)
				f.sts = append(f.sts, k.Static)
			}
			f.body = cols.AppendBinary(nil)
			out = append(out, f)
		}
	}
	return out, nil
}

const binaryContentType = "application/x-gpufreq-columns"

// checkFrame checks one batch answer: one front per kernel, every point on
// the ladder, the model points mutually non-dominated, and (when exact is
// set) every front equal to the in-process predictor's.
func checkFrame(r *run, ref *reference, f frame, body []byte, exact bool) {
	var fr colproto.Fronts
	if !r.check(fr.ParseBinary(body) == nil, "undecodable batch answer") {
		return
	}
	if !r.check(fr.Count == len(f.sts) && fr.Version == ref.version, "batch answer: %d fronts from %q, want %d from %q", fr.Count, fr.Version, len(f.sts), ref.version) {
		return
	}
	var want [][]core.Prediction
	if exact {
		s := engine.GetBatchScratch()
		defer engine.PutBatchScratch(s)
		want = ref.pred.PredictFrontsInto(s, f.sts)
	}
	for i := 0; i < fr.Count; i++ {
		got := fr.Kernel(i)
		r.check(len(got) > 0, "batch kernel %d: empty front", i)
		for _, p := range got {
			r.check(ref.ladder.Supported(p.Config), "batch kernel %d: %v not on the ladder", i, p.Config)
		}
		r.check(nonDominated(got), "batch kernel %d: front has a dominated point", i)
		if exact {
			r.check(reflect.DeepEqual(got, want[i]), "batch kernel %d: served front differs from the in-process predictor", i)
		}
	}
}

// nonDominated reports whether no model point of the front dominates
// another (the appended mem-L heuristic point is not a model point).
func nonDominated(front []core.Prediction) bool {
	for i, p := range front {
		for j, q := range front {
			if i == j || p.MemLHeuristic || q.MemLHeuristic {
				continue
			}
			if p.Speedup >= q.Speedup && p.NormEnergy <= q.NormEnergy && (p.Speedup > q.Speedup || p.NormEnergy < q.NormEnergy) {
				return false
			}
		}
	}
	return true
}

func runBatchNovel(e *env, r *run) error {
	gen := newNovelGen(e.seed)
	warmK, err := gen.take(setupLaunches)
	if err != nil {
		return err
	}
	warm, err := makeFrames(gen, batchWarmFrames)
	if err != nil {
		return err
	}
	frames, err := makeFrames(gen, framePool(e.seconds))
	if err != nil {
		return err
	}
	ref, err := loadReference(e.snapshot)
	if err != nil {
		return err
	}
	d, setup, err := launchServe(e, r, novelStream(e.seed, warmK))
	if err != nil {
		return err
	}
	defer d.stop()
	r.set("setup_s", "s", setup)
	for _, f := range warm {
		status, body, err := post(d.url+"/predict/batch", binaryContentType, f.body)
		if r.op(httpErr(status, body, err)) {
			checkFrame(r, ref, f, body, true)
		}
	}
	bodies := make([][]byte, 0, 1024)
	idx := make([]int, 0, 1024)
	ls, err := closedLoop(group{d}, time.Duration(e.seconds*float64(time.Second)), func(i int) (bool, error) {
		status, body, err := post(d.url+"/predict/batch", binaryContentType, frames[i].body)
		if err = httpErr(status, body, err); err == nil {
			bodies = append(bodies, body)
			idx = append(idx, i)
		}
		return i+1 < len(frames), err
	}, 1, r)
	if err != nil {
		return err
	}
	if ls.completed >= len(frames) {
		fmt.Fprintln(os.Stderr, "perfbench: note: the novel frame pool ran out before the phase ended")
	}
	ls.report(r, "batch frame")
	for n, body := range bodies {
		i := idx[n]
		checkFrame(r, ref, frames[i], body, i%8 == 0)
	}
	return finishDaemons(r, group{d})
}

// ladderDevice is the simulated device every workload serves.
func ladderDevice() (*gpu.Device, error) { return gpu.ByName(device) }
