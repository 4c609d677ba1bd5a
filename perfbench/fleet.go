package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/adapt"
	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/registry"
)

// episodeObs is the number of observations one drift episode reports: the
// adaptation loop's rolling window, so each retrain folds in exactly one
// regime.
const episodeObs = 64

// controlFlags configure the control plane's adaptation loop so every
// episode retrains exactly once, after its window is full: the
// sample-count policy fires every episodeObs observations, the drift
// trigger is set out of reach (the drift detector's own latency is
// measured by the traced run), and the cooldown does not hold back the
// next episode.
var controlFlags = []string{
	"-adapt-retrain-every", fmt.Sprint(episodeObs),
	"-adapt-factor", "1e6",
	"-adapt-cooldown", "1ms",
}

// agents is the fleet size.
var agentNodes = []string{"a1", "a2"}

// health is the part of /healthz the fleet client reads.
type health struct {
	Trained      bool   `json:"trained"`
	ModelVersion string `json:"model_version"`
	Fleet        *struct {
		Hash string `json:"hash"`
		Plan string `json:"plan"`
	} `json:"fleet"`
}

func getJSON(url string, v any) error {
	status, body, err := get(url)
	if err = httpErr(status, body, err); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// fleetRun is one launched fleet: the control plane and its agents.
type fleetRun struct {
	control *daemon
	agents  []*daemon
	models  string
}

func (f *fleetRun) group() group { return append(group{f.control}, f.agents...) }

// versionHash returns a published version's content hash.
func (f *fleetRun) versionHash(version string) (string, error) {
	var me struct {
		Manifest *struct {
			Hash string `json:"hash"`
		} `json:"manifest"`
	}
	if err := getJSON(f.control.url+"/models/"+version, &me); err != nil {
		return "", err
	}
	if me.Manifest == nil {
		return "", fmt.Errorf("version %s has no manifest", version)
	}
	return me.Manifest.Hash, nil
}

// waitAgents polls every agent's /healthz every poll until all serve the
// hash.
func (f *fleetRun) waitAgents(hash string, limit, poll time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		synced := 0
		for _, a := range f.agents {
			var h health
			if err := getJSON(a.url+"/healthz", &h); err == nil && h.Fleet != nil && h.Fleet.Hash == hash {
				synced++
			} else if !a.alive() {
				return fmt.Errorf("%s exited (see its log)", a.name)
			}
		}
		if synced == len(f.agents) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("agents not serving %.8s after %s", hash, limit)
		}
		time.Sleep(poll)
	}
}

// launchFleet starts the control plane on a model directory, with extra
// control-plane flags, then the agents, and returns once every agent
// serves the control plane's active snapshot. The duration is exec of the
// control plane to the last agent serving.
func launchFleet(e *env, tag, models string, controlArgs ...string) (*fleetRun, float64, error) {
	args := append([]string{"-model-dir", models, "-device", device}, controlArgs...)
	control, err := startDaemon(e.bin, "control-"+tag, e.work, args...)
	if err != nil {
		return nil, 0, err
	}
	f := &fleetRun{control: control, models: models}
	fail := func(err error) (*fleetRun, float64, error) {
		f.group().stop()
		return nil, 0, err
	}
	deadline := time.Now().Add(60 * time.Second)
	var h health
	for getJSON(control.url+"/healthz", &h) != nil || !h.Trained {
		if !control.alive() || time.Now().After(deadline) {
			return fail(fmt.Errorf("control plane did not come up (see its log)"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	hash, err := f.versionHash(h.ModelVersion)
	if err != nil {
		return fail(err)
	}
	for _, node := range agentNodes {
		a, err := startDaemon(e.bin, node+"-"+tag, e.work, "-agent", "-control", control.url, "-node", node, "-device", device)
		if err != nil {
			return fail(err)
		}
		f.agents = append(f.agents, a)
	}
	if err := f.waitAgents(hash, 60*time.Second, 10*time.Millisecond); err != nil {
		return fail(err)
	}
	return f, time.Since(control.started).Seconds(), nil
}

// launchFleets launches the fleet fleetLaunches times, each on a private
// copy of the serve snapshot with an observation log and the adaptation
// flags, and keeps the last one, returning the median launch time.
func launchFleets(e *env, r *run) (*fleetRun, float64, error) {
	var times []float64
	var f *fleetRun
	for i := 0; i < fleetLaunches; i++ {
		tag := fmt.Sprint(i)
		dir := filepath.Join(e.work, "fleet-"+tag)
		models := filepath.Join(dir, "models")
		if err := copyTree(e.snapshot, models); err != nil {
			return nil, 0, err
		}
		flags := append([]string{"-obs-dir", filepath.Join(dir, "obs")}, controlFlags...)
		fr, t, err := launchFleet(e, tag, models, flags...)
		if !r.op(err) {
			return nil, 0, err
		}
		times = append(times, t)
		if i < fleetLaunches-1 {
			fr.group().stop()
		} else {
			f = fr
		}
	}
	return f, median(times), nil
}

// adaptState is the part of /adapt/status the episode loop reads.
type adaptState struct {
	Retrain struct {
		Retrains    int    `json:"retrains"`
		LastOutcome string `json:"last_outcome"`
		LastVersion string `json:"last_version"`
		LastError   string `json:"last_error"`
	} `json:"retrain"`
}

// episodeResult is one completed drift episode.
type episodeResult struct {
	regime       regime
	from, to     string // serving versions before and after
	dur, pushDur time.Duration
	cpu          time.Duration
	observeMS    []float64
}

// episode reports one regime's window of observations to the agents
// (alternating, one request each), waits for the control plane's retrain,
// and returns once every agent serves the retrained version.
func (f *fleetRun) episode(r *run, reps []report, reg regime) (episodeResult, error) {
	res := episodeResult{regime: reg}
	var before adaptState
	if err := getJSON(f.control.url+"/adapt/status", &before); err != nil {
		return res, err
	}
	var h health
	if err := getJSON(f.control.url+"/healthz", &h); err != nil {
		return res, err
	}
	res.from = h.ModelVersion
	g := f.group()
	cpu0, err := g.cpu()
	if err != nil {
		return res, err
	}
	start := time.Now()
	for i, rep := range reps {
		t0 := time.Now()
		status, body, err := post(f.agents[i%len(f.agents)].url+"/observe", "application/json", rep.Payload)
		err = httpErr(status, body, err)
		if err == nil {
			var resp struct {
				Results []struct {
					Ingest *adapt.IngestResult `json:"ingest"`
					Error  string              `json:"error"`
				} `json:"results"`
			}
			if json.Unmarshal(body, &resp) != nil || len(resp.Results) != 1 || resp.Results[0].Ingest == nil || !resp.Results[0].Ingest.Stored {
				err = fmt.Errorf("observation not stored: %s", body)
			}
		}
		if r.op(err) {
			res.observeMS = append(res.observeMS, float64(time.Since(t0))/1e6)
		}
	}
	deadline := start.Add(90 * time.Second)
	var st adaptState
	for {
		if err := getJSON(f.control.url+"/adapt/status", &st); err != nil {
			return res, err
		}
		if st.Retrain.Retrains > before.Retrain.Retrains {
			break
		}
		if time.Now().After(deadline) || !f.control.alive() {
			return res, fmt.Errorf("regime %s: no retrain", reg.Name)
		}
		time.Sleep(10 * time.Millisecond)
	}
	activated := time.Now()
	if st.Retrain.LastOutcome != adapt.OutcomeActivated {
		return res, fmt.Errorf("regime %s: retrain %s %s: %s", reg.Name, st.Retrain.LastVersion, st.Retrain.LastOutcome, st.Retrain.LastError)
	}
	res.to = st.Retrain.LastVersion
	hash, err := f.versionHash(res.to)
	if err != nil {
		return res, err
	}
	if err := f.waitAgents(hash, time.Until(deadline), 10*time.Millisecond); err != nil {
		return res, fmt.Errorf("regime %s: %w", reg.Name, err)
	}
	end := time.Now()
	res.dur, res.pushDur = end.Sub(start), end.Sub(activated)
	cpu1, err := g.cpu()
	if err != nil {
		return res, err
	}
	res.cpu = cpu1 - cpu0
	return res, nil
}

// fleetInputs generates the regime sequence and each regime's window of
// observations.
func fleetInputs(seed int64, n int) ([]regime, [][]report, error) {
	dev, err := ladderDevice()
	if err != nil {
		return nil, nil, err
	}
	regs := regimeSeq(seed, n)
	rng := rand.New(rand.NewSource(seed ^ 0x6f6273))
	obs := make([][]report, n)
	for i, reg := range regs {
		if obs[i], err = measureRegime(dev, reg, rng, episodeObs, 0); err != nil {
			return nil, nil, err
		}
	}
	return regs, obs, nil
}

// A fleet-adapt run times at least minEpisodes episodes and goes on
// until --seconds is spent, up to maxEpisodes.
const (
	minEpisodes = 2
	maxEpisodes = 12
)

func runFleetAdapt(e *env, r *run) error {
	regs, obs, err := fleetInputs(e.seed, maxEpisodes+1)
	if err != nil {
		return err
	}
	f, launch, err := launchFleets(e, r)
	if err != nil {
		return err
	}
	g := f.group()
	defer g.stop()
	var h health
	if err := getJSON(f.control.url+"/healthz", &h); !r.op(err) {
		return err
	}
	base := h.ModelVersion
	baseHash, err := f.versionHash(base)
	if err != nil {
		return err
	}
	// The first episode is set-up: its retrain builds the synthetic
	// training matrix once per control-plane process. A failed episode
	// counts as a failed operation and the run goes on; the next episode
	// starts from the rolled-back fleet.
	var eps []episodeResult
	t0 := time.Now()
	first, err := f.episode(r, obs[0], regs[0])
	firstDur := time.Since(t0)
	if r.op(err) {
		eps = append(eps, first)
		firstDur = first.dur
	}
	fmt.Fprintf(os.Stderr, "perfbench: fleet launch %.2f s, first episode (%s) %.2f s\n", launch, regs[0].Name, firstDur.Seconds())
	r.set("setup_s", "s", launch+firstDur.Seconds())
	var observeMS, durS, cpuMS []float64
	timed := func(i int) error {
		// Every episode shifts away from the published snapshot: roll the
		// fleet back to it first (untimed), so each retrain is seeded
		// from the paper-scale model, as the set-up episode's was.
		status, body, err := post(f.control.url+"/models/"+base+"/activate", "application/json", nil)
		if err = httpErr(status, body, err); err == nil {
			err = f.waitAgents(baseHash, 60*time.Second, 10*time.Millisecond)
		}
		if !r.op(err) {
			return err
		}
		ep, err := f.episode(r, obs[i], regs[i])
		if !r.op(err) {
			return nil
		}
		eps = append(eps, ep)
		observeMS = append(observeMS, ep.observeMS...)
		durS = append(durS, ep.dur.Seconds())
		cpuMS = append(cpuMS, 1e3*ep.cpu.Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: episode %d (%s): %s→%s in %.2f s (push %.0f ms), CPU %.2f s\n",
			i, ep.regime.Name, ep.from, ep.to, ep.dur.Seconds(), 1e3*ep.pushDur.Seconds(), ep.cpu.Seconds())
		return nil
	}
	start := time.Now()
	for i := 1; i < len(regs) && (i <= minEpisodes || time.Since(start).Seconds() < e.seconds); i++ {
		if err := timed(i); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: observe on agents: %s\n", tailLine(observeMS))
	fmt.Fprintf(os.Stderr, "perfbench: episodes: median %.2f s, median CPU %.2f s over %d\n", median(durS), median(cpuMS)/1e3, len(durS))
	r.set("op_cpu_ms", "ms", median(cpuMS))
	if err := finishDaemons(r, g); err != nil {
		return err
	}
	return checkEpisodes(r, f.models, eps, e.seed)
}

// checkEpisodes checks that every episode's retrained model predicts
// fresh simulator measurements of its regime (configurations its window
// did not contain) better than the model it replaced.
func checkEpisodes(r *run, models string, eps []episodeResult, seed int64) error {
	store, err := registry.Open(models)
	if err != nil {
		return err
	}
	dev, err := ladderDevice()
	if err != nil {
		return err
	}
	preds := map[string]*engine.Predictor{}
	pred := func(version string) (*engine.Predictor, error) {
		if p, ok := preds[version]; ok {
			return p, nil
		}
		m, _, err := store.Load(device, version)
		if err != nil {
			return nil, err
		}
		preds[version] = engine.NewPredictor(m, dev.Ladder, engine.Options{})
		return preds[version], nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x66726573))
	for _, ep := range eps {
		fresh, err := measureRegime(dev, ep.regime, rng, episodeObs, 1)
		if err != nil {
			return err
		}
		obs := make([]adapt.Observation, len(fresh))
		for i, f := range fresh {
			obs[i] = f.Obs
		}
		oldP, err := pred(ep.from)
		if err != nil {
			return err
		}
		newP, err := pred(ep.to)
		if err != nil {
			return err
		}
		oldErr, newErr := pooledRMSE(oldP, obs), pooledRMSE(newP, obs)
		r.check(newErr < oldErr, "regime %s: retrained %s error %.4f not below replaced %s error %.4f", ep.regime.Name, ep.to, newErr, ep.from, oldErr)
	}
	return nil
}

func pooledRMSE(p *engine.Predictor, obs []adapt.Observation) float64 {
	s, e := adapt.Residuals(p, obs)
	return math.Sqrt((s*s + e*e) / 2)
}

// budgetTotal is the seeded fleet power budget: 80–95% of the fleet's
// default-clock draw.
func budgetTotal(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x627564))
	return float64(len(agentNodes)) * (0.80 + 0.05*float64(rng.Intn(4)))
}

func runFleetBudget(e *env, r *run) error {
	total := budgetTotal(e.seed)
	f, launch, err := launchFleets(e, r)
	if err != nil {
		return err
	}
	g := f.group()
	defer g.stop()
	r.set("setup_s", "s", launch)
	setBody, _ := json.Marshal(map[string]any{"total": total, "unit": budget.UnitPower}) // cannot fail
	replanBody := []byte(`{"replan":true}`)
	for _, body := range [][]byte{setBody, replanBody} { // set, then one untimed replan
		status, resp, err := post(f.control.url+"/fleet/budget", "application/json", body)
		if !r.op(httpErr(status, resp, err)) {
			return fmt.Errorf("setting the budget: %v", httpErr(status, resp, err))
		}
	}
	ls, err := closedLoop(g, time.Duration(e.seconds*float64(time.Second)), func(int) (bool, error) {
		status, resp, err := post(f.control.url+"/fleet/budget", "application/json", replanBody)
		return true, httpErr(status, resp, err)
	}, 1, r)
	if err != nil {
		return err
	}
	ls.report(r, "replan")
	if err := checkPlan(r, f, total); err != nil {
		return err
	}
	return finishDaemons(r, g)
}

// checkPlan recomputes the plan's cost from its allocations and checks it
// against the budget, and checks that every agent holds the decision table
// the control plane cut for it.
func checkPlan(r *run, f *fleetRun, total float64) error {
	var st fleet.BudgetStatusResponse
	if err := getJSON(f.control.url+"/fleet/budget", &st); err != nil {
		return err
	}
	if !r.check(st.Plan != nil, "no plan after the replans") {
		return nil
	}
	var cost float64
	for _, a := range st.Plan.Allocations {
		cost += a.Weight * a.Chosen.NormEnergy * a.Chosen.Speedup
	}
	fmt.Fprintf(os.Stderr, "perfbench: plan %s over %d items: feasible=%v cost %.4f (recomputed %.4f) budget %.2f, fleet speedup %.4f\n",
		st.Plan.Strategy, len(st.Plan.Allocations), st.Plan.Feasible, st.Plan.Cost, cost, total, st.Plan.FleetSpeedup)
	if st.Plan.Feasible {
		r.check(cost <= total*(1+1e-9), "feasible plan costs %.6f > budget %.4f", cost, total)
	}
	r.check(math.Abs(cost-st.Plan.Cost) <= 1e-6*math.Max(1, cost), "plan reports cost %.6f, allocations sum to %.6f", st.Plan.Cost, cost)
	plans := map[string]string{}
	for _, n := range st.Nodes {
		plans[n.Node] = n.Hash
	}
	for i, a := range f.agents {
		var h health
		if err := getJSON(a.url+"/healthz", &h); err != nil {
			return err
		}
		want := plans[agentNodes[i]]
		r.check(want != "" && h.Fleet != nil && h.Fleet.Plan == want, "agent %s holds plan %v, control plane cut %.12s", agentNodes[i], h.Fleet, want)
	}
	return nil
}
