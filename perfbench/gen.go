package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/adapt"
	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/policy"
	"repro/internal/synth"
)

// kernel is one OpenCL kernel the client sends, with the static feature
// vector the client extracted from it (used only by the checks).
type kernel struct {
	Name   string
	Source string
	Static features.Static
}

// knownKernels returns the 106 training micro-benchmarks followed by the
// 12 test applications: the kernels a paper-scale snapshot was trained on
// or evaluated against.
func knownKernels() []kernel {
	var out []kernel
	for _, b := range synth.Generate() {
		out = append(out, kernel{Name: b.KernelName, Source: b.Source, Static: b.Features()})
	}
	for _, b := range bench.All() {
		out = append(out, kernel{Name: b.KernelName, Source: b.Source, Static: b.Features()})
	}
	return out
}

// novelGen derives kernels no snapshot has seen: a seeded base source from
// the training or test set, with a seeded block of arithmetic statements
// injected at the top of the kernel body. Every generated kernel is parsed
// by features.ExtractSource, and its static vector must differ from every
// known kernel and every kernel generated before it.
type novelGen struct {
	rng   *rand.Rand
	bases []kernel
	seen  map[features.Static]bool
}

func newNovelGen(seed int64) *novelGen {
	g := &novelGen{rng: rand.New(rand.NewSource(seed ^ 0x6e6f76656c)), bases: knownKernels(), seen: map[features.Static]bool{}}
	for _, k := range g.bases {
		g.seen[k.Static] = true
	}
	return g
}

// injected statement kinds: each stresses one feature class.
var injectOps = []string{
	"pbf = pbf * 1.25f + 0.5f;",
	"pbf = pbf / 1.5f;",
	"pbf = sqrt(pbf + 1.0f);",
	"pbi = pbi + 3;",
	"pbi = pbi * 5;",
	"pbi = pbi ^ 6;",
}

// candidate draws one generated kernel source from its base.
func (g *novelGen) candidate() (src string, base kernel, err error) {
	base = g.bases[g.rng.Intn(len(g.bases))]
	at := strings.Index(base.Source, "__kernel")
	if at < 0 {
		return "", base, fmt.Errorf("base kernel %s has no __kernel function", base.Name)
	}
	brace := strings.Index(base.Source[at:], "{")
	if brace < 0 {
		return "", base, fmt.Errorf("base kernel %s has no body", base.Name)
	}
	cut := at + brace + 1
	var b strings.Builder
	b.WriteString(base.Source[:cut])
	b.WriteString("\n    float pbf = 1.5f; int pbi = 7;\n")
	for _, op := range injectOps {
		for n := g.rng.Intn(24); n > 0; n-- {
			b.WriteString("    ")
			b.WriteString(op)
			b.WriteString("\n")
		}
	}
	b.WriteString(base.Source[cut:])
	return b.String(), base, nil
}

// extractWorkers is how many goroutines parse generated kernels.
const extractWorkers = 2

// take returns the next n novel kernels. Candidates are drawn in order
// from the seeded stream, parsed by extractWorkers goroutines, and kept in
// draw order when their static vector is new, so the result depends only
// on the seed and the sequence of calls.
func (g *novelGen) take(n int) ([]kernel, error) {
	out := make([]kernel, 0, n)
	dry := 0 // consecutive draws that repeated a vector
	for len(out) < n {
		cands := make([]kernel, n-len(out))
		for i := range cands {
			src, base, err := g.candidate()
			if err != nil {
				return nil, err
			}
			cands[i] = kernel{Name: base.Name, Source: src}
		}
		errs := make([]error, len(cands))
		var wg sync.WaitGroup
		for w := 0; w < extractWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(cands); i += extractWorkers {
					cands[i].Static, errs[i] = features.ExtractSource(cands[i].Source, cands[i].Name)
				}
			}(w)
		}
		wg.Wait()
		for i, k := range cands {
			if errs[i] != nil {
				return nil, fmt.Errorf("generated kernel from %s does not parse: %w", k.Name, errs[i])
			}
			if g.seen[k.Static] {
				if dry++; dry >= 1000 {
					return nil, fmt.Errorf("no distinct novel kernel after 1000 draws")
				}
				continue
			}
			dry = 0
			g.seen[k.Static] = true
			out = append(out, k)
		}
	}
	return out, nil
}

// policyNames is the rotation order of the five built-in policies.
var policyNames = []string{policy.MinEnergy, policy.MaxPerf, policy.EDP, policy.ED2P, policy.Balanced}

// specFor returns the i-th policy of the seeded rotation, with a seeded
// constraint parameter for the two constrained policies.
func specFor(seed int64, i int, rng *rand.Rand) policy.Spec {
	s := policy.Spec{Name: policyNames[(i+int(seed%5)+5)%5]}
	switch s.Name {
	case policy.MinEnergy:
		s.MaxSlowdown = []float64{0.05, 0.10, 0.20}[rng.Intn(3)]
	case policy.MaxPerf:
		s.EnergyBudget = []float64{0.9, 1.0, 1.1}[rng.Intn(3)]
	}
	return s
}

// selectReq is one /select request with the kernel and spec it carries.
type selectReq struct {
	K    kernel
	Spec policy.Spec
	Body []byte
}

func newSelectReq(k kernel, spec policy.Spec) selectReq {
	body, _ := json.Marshal(struct {
		Policy policy.Spec `json:"policy"`
		Source string      `json:"source"`
		Kernel string      `json:"kernel"`
	}{spec, k.Source, k.Name}) // cannot fail: plain strings and numbers
	return selectReq{K: k, Spec: spec, Body: body}
}

// knownStream is the serve-known request set: every (known kernel,
// policy) pair once, in a seeded order, with seeded constraint parameters.
func knownStream(seed int64) []selectReq {
	rng := rand.New(rand.NewSource(seed))
	ks := knownKernels()
	var out []selectReq
	for i, k := range ks {
		for p := range policyNames {
			out = append(out, newSelectReq(k, specFor(seed, i+p, rng)))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// novelStream turns novel kernels into /select requests with the seeded
// policy rotation.
func novelStream(seed int64, ks []kernel) []selectReq {
	rng := rand.New(rand.NewSource(seed ^ 0x73656c))
	out := make([]selectReq, len(ks))
	for i, k := range ks {
		out[i] = newSelectReq(k, specFor(seed, i, rng))
	}
	return out
}

// regime is one workload regime of the fleet: the test applications'
// memory behaviour shifted as `freqbench -exp adapt` shifts it.
type regime struct {
	Name         string
	CacheHitRate float64
	Coalescing   float64
}

// regimeSeq returns n regimes: caches hot and accesses coalesced
// (compute-bound), each with a seeded jitter. Every episode shifts the
// fleet away from the published snapshot into such a regime: the
// paper-scale model mispredicts it and a retrain on one 64-observation
// window learns it. (A cold, scattered regime — the drift-recovery
// experiment's — is not reliably learnable from one window at the daemon's
// default observation weight: some seeds' candidates fail the holdout.)
func regimeSeq(seed int64, n int) []regime {
	rng := rand.New(rand.NewSource(seed ^ 0x7265676d))
	out := make([]regime, n)
	for i := range out {
		out[i] = regime{"compute-bound", 0.94 + 0.06*rng.Float64(), 0.96 + 0.04*rng.Float64()}
	}
	return out
}

func (r regime) apply(p gpu.KernelProfile) gpu.KernelProfile {
	p.CacheHitRate = r.CacheHitRate
	p.Coalescing = r.Coalescing
	return p
}

// report is one observation the fleet client sends to an agent.
type report struct {
	Obs     adapt.Observation
	Payload []byte
}

// observeConfigs are the configurations observations are taken at: the
// two highest memory clocks, every few core clocks, as in the
// drift-recovery experiment (where the models are reliable and the
// built-in policies' decisions land).
func observeConfigs(l *freq.Ladder, offset int) []freq.Config {
	var cfgs []freq.Config
	for _, m := range l.MemClocks()[:2] {
		cores := l.CoreClocks(m)
		step := len(cores)/6 + 1
		for i := offset % step; i < len(cores); i += step {
			cfgs = append(cfgs, freq.Config{Mem: m, Core: cores[i]})
		}
	}
	return cfgs
}

// measureRegime measures n (test application, configuration) pairs under
// the regime on the simulated device: the applications take turns in a
// seeded order, each at seeded configurations of its own, so every window
// covers all 12 applications about equally. offset selects the core-clock
// phase of the configuration grid, so "fresh" measurements for a check use
// configurations the window never saw.
func measureRegime(dev *gpu.Device, r regime, rng *rand.Rand, n, offset int) ([]report, error) {
	h := measure.NewHarness(nvml.NewDevice(dev))
	cfgs := observeConfigs(dev.Ladder, offset)
	apps := bench.All()
	order := rng.Perm(len(apps))
	perApp := make([][]int, len(apps))
	for a := range perApp {
		perApp[a] = rng.Perm(len(cfgs))
	}
	if max := len(apps) * len(cfgs); n > max {
		n = max
	}
	bases := map[int]measure.Measurement{}
	out := make([]report, 0, n)
	for i := 0; i < n; i++ {
		a := order[i%len(apps)]
		c := perApp[a][i/len(apps)]
		app := apps[a]
		prof := r.apply(app.Profile())
		base, ok := bases[a]
		if !ok {
			var err error
			if base, err = h.Baseline(prof); err != nil {
				return nil, err
			}
			bases[a] = base
		}
		rel, err := h.MeasureRelative(prof, cfgs[c], base)
		if err != nil {
			return nil, err
		}
		k := kernel{Name: app.KernelName, Source: app.Source, Static: app.Features()}
		o := adapt.Observation{Kernel: k.Name, Features: k.Static, Config: rel.Config, Speedup: rel.Speedup, NormEnergy: rel.NormEnergy}
		payload, _ := json.Marshal(map[string]any{ // cannot fail: plain values
			"source": k.Source, "kernel": k.Name, "config": rel.Config,
			"speedup": rel.Speedup, "norm_energy": rel.NormEnergy,
		})
		out = append(out, report{Obs: o, Payload: payload})
	}
	return out, nil
}
