// Package scenario is the compilation layer between PhoNoCMap's
// declarative inputs (Figure 1, boxes 1-2) and its runtime engines: one
// canonical path takes a scenario specification — application,
// architecture (including declaratively degraded topologies), objective,
// algorithm, budget, seeding and an optional post-optimization analysis
// block — to a runnable core.Problem, and one analysis pipeline runs the
// requested physical studies (wavelength allocation, optical power
// feasibility, parameter-variation robustness, link-failure tolerance,
// traffic simulation) on the winning mapping.
//
// Every front end builds problems through this package and runs them
// through its one executor, Compiled.Execute — the phonocmap CLI, the
// runners, the optimization service, the sweep engine and
// phonocmap-bench — so spec resolution, validation, seeding and the
// cancellation policy cannot drift between layers, and a spec's
// canonical JSON (Key) is a content address shared by all of them. The
// package also answers discovery (Apps, Routers): the names a spec may
// use.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"phonocmap/internal/cg"
	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
	"phonocmap/internal/power"
	"phonocmap/internal/router"
	"phonocmap/internal/search"
	"phonocmap/internal/sim"
)

// Spec is a fully declarative scenario: what to map onto what, how to
// optimize it, and which physical analyses to run on the result. A
// normalized Spec has every default resolved, so equal Specs describe
// identical computations; its canonical JSON is the content-addressed
// cache identity used by the optimization service.
type Spec struct {
	App       config.AppSpec  `json:"app"`
	Arch      config.ArchSpec `json:"arch"`
	Objective string          `json:"objective"` // "snr", "loss" or "wloss"
	Algorithm string          `json:"algorithm"` // default "rpbla"
	Budget    int             `json:"budget"`    // default 20000
	Seed      int64           `json:"seed"`      // default 1
	// Seeds > 1 switches to islands mode: that many independent seeded
	// searches (Seed, Seed+1, ...) run concurrently and the best wins.
	Seeds int `json:"seeds"`
	// Analyses, when present, selects the post-optimization analyses to
	// run on the winning mapping. It is part of the spec's identity: two
	// scenarios differing only in requested analyses are distinct
	// computations.
	Analyses *AnalysesSpec `json:"analyses,omitempty"`
}

// Normalize resolves every default in place — architecture sizing via
// config.ArchSpec.Normalize, run parameters via
// config.Experiment.Normalize, analysis parameters via the analysis
// specs' own defaults — and validates the result (known objective,
// algorithm, topology, router; analyses consistent with the
// architecture). It returns the built application graph so callers need
// not rebuild it for sizing or reporting.
func (s *Spec) Normalize() (*cg.Graph, error) {
	app, err := s.App.Build()
	if err != nil {
		return nil, err
	}
	s.Arch.Normalize(app.NumTasks())
	exp := config.Experiment{
		App:       s.App,
		Arch:      s.Arch,
		Objective: s.Objective,
		Algorithm: s.Algorithm,
		Budget:    s.Budget,
		Seed:      s.Seed,
	}
	exp.Normalize()
	s.Arch = exp.Arch
	s.Objective = exp.Objective
	s.Algorithm = exp.Algorithm
	s.Budget = exp.Budget
	s.Seed = exp.Seed
	if s.Seeds == 0 {
		s.Seeds = 1
	}
	if s.Seeds < 0 {
		return nil, fmt.Errorf("scenario: seeds must be >= 1, got %d", s.Seeds)
	}
	if _, err := core.ParseObjective(s.Objective); err != nil {
		return nil, err
	}
	if _, err := search.New(s.Algorithm); err != nil {
		return nil, err
	}
	if len(s.Arch.FailedLinks) > 0 && s.Arch.Routing != "bfs" {
		// Reject at normalization time (cheap, before any network build):
		// dimension-order routing cannot detour around cuts.
		return nil, fmt.Errorf("scenario: failed_links needs \"bfs\" routing (dimension-order %q requires the full grid)", s.Arch.Routing)
	}
	if s.Analyses != nil {
		// Spec has value semantics but Analyses is a pointer: deep-copy
		// before filling defaults so normalizing one spec copy never
		// mutates another (e.g. sweep cells sharing one grid block).
		s.Analyses = s.Analyses.clone()
		if err := s.Analyses.normalize(s.Arch); err != nil {
			return nil, err
		}
	}
	return app, nil
}

// Key returns the content address of a normalized spec: the hex SHA-256
// of its canonical JSON (struct field order is fixed, so the encoding is
// stable). Specs differing only in their analyses block get different
// keys — a cached optimization score must never be returned with the
// wrong (or a missing) analysis report.
func (s Spec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; marshalling cannot fail.
		panic("scenario: spec marshal failed: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// AnalysesSpec selects and configures the post-optimization analyses.
// Each analysis is enabled by the presence of its block; an empty block
// means "run with defaults".
type AnalysesSpec struct {
	// WDM allocates wavelength channels to the mapped communications and
	// re-evaluates crosstalk under the assignment.
	WDM *WDMSpec `json:"wdm,omitempty"`
	// Power assesses the optical power budget feasibility of the design
	// point (required laser power vs the nonlinearity ceiling).
	Power *PowerSpec `json:"power,omitempty"`
	// Robustness runs a Monte Carlo study of the mapping under photonic
	// coefficient variation.
	Robustness *RobustnessSpec `json:"robustness,omitempty"`
	// LinkFailures evaluates the mapping under every single-link full cut
	// with BFS rerouting. Requires an all-turn router (cygnus, crossbar).
	LinkFailures *LinkFailuresSpec `json:"link_failures,omitempty"`
	// Sim plays the mapped traffic through the circuit-switched
	// discrete-event simulator across one or more load points.
	Sim *SimSpec `json:"sim,omitempty"`
}

// clone deep-copies the analysis block so normalization can fill
// defaults without mutating the caller's (possibly shared) spec.
func (a *AnalysesSpec) clone() *AnalysesSpec {
	if a == nil {
		return nil
	}
	out := &AnalysesSpec{}
	if a.WDM != nil {
		v := *a.WDM
		out.WDM = &v
	}
	if a.Power != nil {
		v := *a.Power
		out.Power = &v
	}
	if a.Robustness != nil {
		v := *a.Robustness
		out.Robustness = &v
	}
	if a.LinkFailures != nil {
		v := *a.LinkFailures
		out.LinkFailures = &v
	}
	if a.Sim != nil {
		v := *a.Sim
		v.LoadScales = append([]float64(nil), a.Sim.LoadScales...)
		out.Sim = &v
	}
	return out
}

// normalize fills analysis defaults and validates them against the
// normalized architecture.
func (a *AnalysesSpec) normalize(arch config.ArchSpec) error {
	if a.Power != nil {
		if err := a.Power.normalize(); err != nil {
			return err
		}
	}
	if a.Robustness != nil {
		if err := a.Robustness.normalize(); err != nil {
			return err
		}
	}
	if a.LinkFailures != nil {
		// Fail at validation time, not after the optimization budget has
		// been spent: BFS detours need every turn the router can't make.
		r, err := router.ByName(arch.Router)
		if err != nil {
			return err
		}
		if err := router.CheckTurns(r, router.RequiredTurnsAll()); err != nil {
			return fmt.Errorf("scenario: link-failure analysis needs an all-turn router: %w", err)
		}
	}
	if a.Sim != nil {
		if err := a.Sim.normalize(); err != nil {
			return err
		}
	}
	return nil
}

// WDMSpec enables wavelength allocation. It has no parameters: the
// contention graph and its coloring are fully determined by the mapping.
type WDMSpec struct{}

// PowerSpec configures the optical power budget. Zero values resolve to
// power.DefaultBudget's representative technology point (-20 dBm
// sensitivity, +20 dBm nonlinearity ceiling, single wavelength); a
// literal 0 dBm bound is therefore not expressible — use an epsilon.
type PowerSpec struct {
	DetectorSensitivityDBm float64 `json:"detector_sensitivity_dbm,omitempty"`
	NonlinearityLimitDBm   float64 `json:"nonlinearity_limit_dbm,omitempty"`
	SNRMarginDB            float64 `json:"snr_margin_db,omitempty"`
	Wavelengths            int     `json:"wavelengths,omitempty"`
}

func (p *PowerSpec) normalize() error {
	def := power.DefaultBudget()
	if p.DetectorSensitivityDBm == 0 {
		p.DetectorSensitivityDBm = def.DetectorSensitivityDBm
	}
	if p.NonlinearityLimitDBm == 0 {
		p.NonlinearityLimitDBm = def.NonlinearityLimitDBm
	}
	if p.Wavelengths == 0 {
		p.Wavelengths = def.Wavelengths
	}
	return p.budget().Validate()
}

// budget converts the normalized spec into the power engine's Budget.
func (p PowerSpec) budget() power.Budget {
	return power.Budget{
		DetectorSensitivityDBm: p.DetectorSensitivityDBm,
		NonlinearityLimitDBm:   p.NonlinearityLimitDBm,
		SNRMarginDB:            p.SNRMarginDB,
		Wavelengths:            p.Wavelengths,
	}
}

// MaxRobustnessSamples bounds the Monte Carlo sample count: every sample
// rebuilds the network and re-evaluates the mapping, so an unbounded
// request would let one job monopolize a service worker.
const MaxRobustnessSamples = 10_000

// RobustnessSpec configures the parameter-variation Monte Carlo study.
// Like everywhere else in the config layer, zero values mean "use the
// default" (a literal zero tolerance would be a no-op study anyway —
// use a tiny positive value to approximate it); the normalized values
// are echoed back in the job's spec and report.
type RobustnessSpec struct {
	// Samples is the number of perturbed parameter draws (default 50).
	Samples int `json:"samples,omitempty"`
	// Tolerance is the relative coefficient uncertainty in (0, 1)
	// (default 0.1 = ±10%).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Seed drives the draws reproducibly (default 1).
	Seed int64 `json:"seed,omitempty"`
}

func (r *RobustnessSpec) normalize() error {
	if r.Samples == 0 {
		r.Samples = 50
	}
	if r.Tolerance == 0 {
		r.Tolerance = 0.1
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Samples < 1 || r.Samples > MaxRobustnessSamples {
		return fmt.Errorf("scenario: robustness samples %d out of range (1..%d)", r.Samples, MaxRobustnessSamples)
	}
	if r.Tolerance < 0 || r.Tolerance >= 1 {
		return fmt.Errorf("scenario: robustness tolerance %v out of [0, 1)", r.Tolerance)
	}
	return nil
}

// LinkFailuresSpec enables the exhaustive single-link-cut study. It has
// no parameters: every undirected link of the topology is cut once.
type LinkFailuresSpec struct{}

// MaxSimLoadPoints bounds the simulated load sweep per scenario.
const MaxSimLoadPoints = 32

// MaxSimDurationNs bounds a traffic simulation's window, in simulated
// nanoseconds: 1e7, 100 times the default window (sim.Config's 1e5).
// Simulation time grows with the window, and a job holds a service worker
// while it runs: a PIP job took 1.7 ms at 1e6 ns and 13 ms at 1e7 ns on
// one worker (Intel Xeon, 2 vCPUs), so an unbounded window such as 1e15
// ns would hold its worker for about two weeks.
const MaxSimDurationNs = 1e7

// SimSpec configures the traffic simulation. Zero-valued physical
// parameters resolve to sim.Config's defaults; LoadScales defaults to a
// single point at the application's nominal load.
type SimSpec struct {
	PacketBits        float64 `json:"packet_bits,omitempty"`
	LinkBandwidthGbps float64 `json:"link_bandwidth_gbps,omitempty"`
	SetupNsPerHop     float64 `json:"setup_ns_per_hop,omitempty"`
	DurationNs        float64 `json:"duration_ns,omitempty"`
	WarmupNs          float64 `json:"warmup_ns,omitempty"`
	// LoadScales lists the load points to simulate, each a multiplier on
	// the CG edge bandwidths (default [1]). Multiple ascending points turn
	// the report into a load sweep with a saturation estimate.
	LoadScales []float64 `json:"load_scales,omitempty"`
	Seed       int64     `json:"seed,omitempty"`
}

func (s *SimSpec) normalize() error {
	// Resolve the physical defaults through the simulator's own
	// normalization so the two layers cannot drift apart.
	cfg := sim.Config{
		PacketBits:        s.PacketBits,
		LinkBandwidthGbps: s.LinkBandwidthGbps,
		SetupNsPerHop:     s.SetupNsPerHop,
		DurationNs:        s.DurationNs,
		WarmupNs:          s.WarmupNs,
		Seed:              s.Seed,
	}
	cfg.Normalize()
	s.PacketBits = cfg.PacketBits
	s.LinkBandwidthGbps = cfg.LinkBandwidthGbps
	s.SetupNsPerHop = cfg.SetupNsPerHop
	s.DurationNs = cfg.DurationNs
	s.WarmupNs = cfg.WarmupNs
	s.Seed = cfg.Seed
	if !(s.DurationNs <= MaxSimDurationNs) {
		return fmt.Errorf("scenario: sim duration %v ns, limit %v", s.DurationNs, float64(MaxSimDurationNs))
	}
	if len(s.LoadScales) == 0 {
		s.LoadScales = []float64{1}
	}
	if len(s.LoadScales) > MaxSimLoadPoints {
		return fmt.Errorf("scenario: %d sim load points, limit %d", len(s.LoadScales), MaxSimLoadPoints)
	}
	for _, l := range s.LoadScales {
		if l <= 0 {
			return fmt.Errorf("scenario: sim load scale must be positive, got %v", l)
		}
	}
	return nil
}

// config converts the normalized spec into the simulator's Config for
// one load point.
func (s SimSpec) config(loadScale float64) sim.Config {
	return sim.Config{
		PacketBits:        s.PacketBits,
		LinkBandwidthGbps: s.LinkBandwidthGbps,
		SetupNsPerHop:     s.SetupNsPerHop,
		DurationNs:        s.DurationNs,
		WarmupNs:          s.WarmupNs,
		LoadScale:         loadScale,
		Seed:              s.Seed,
	}
}

// Compiled is a runnable scenario: the normalized spec alongside the
// runtime objects it compiles to. The Problem owns evaluator scratch, so
// a Compiled is not safe for concurrent use.
type Compiled struct {
	Spec    Spec
	App     *cg.Graph
	Network *network.Network
	Problem *core.Problem
}

// Compile normalizes the spec (on a copy; the argument is not modified)
// and builds the runtime problem it describes, including the Eq. 2 fit
// check. This is the single spec-to-problem path shared by the CLI, the
// runners, the optimization service and the sweep engine. Compile builds
// the spec's network; a compile through a NetworkCache (a local
// runner's, a server's) takes it from the cache instead, and both give
// bit-identical problems.
// Normalization is idempotent and cheap next to any optimization run,
// so callers that normalized earlier (the service, sweep expansion) pay
// only a redundant validation here, plus a graph build for a custom app
// (a builtin app's graph is shared) — a deliberate trade for one
// unconditional validation path.
func Compile(spec Spec) (*Compiled, error) {
	return (*NetworkCache)(nil).Compile(spec)
}
