package main

// The Figure 3 study: worst-case SNR and power-loss distributions over
// uniformly random mappings of each application.

import (
	"context"
	"fmt"
	"math/rand"

	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/stats"
	"phonocmap/internal/sweep"
)

// problemFor builds the paper's problem instance for one app — smallest
// square mesh or torus of Crux routers with XY routing — through the
// scenario compiler, like every other front end.
func problemFor(app string, torus bool, obj core.Objective) (*core.Problem, error) {
	spec := scenario.Spec{
		App:       config.AppSpec{Builtin: app},
		Objective: obj.String(),
	}
	if torus {
		spec.Arch.Topology = "torus"
	}
	comp, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	return comp.Problem, nil
}

// Fig3Result holds the random-mapping distributions of one application:
// the empirical SNR and power-loss histograms of Figure 3 plus summary
// statistics.
type Fig3Result struct {
	App         string
	Samples     int
	SNRHist     *stats.Histogram
	LossHist    *stats.Histogram
	SNRSummary  stats.Summary
	LossSummary stats.Summary
}

// Fig3Options configures the distribution study. The zero value is
// completed by Normalize to the paper's setup (100 000 samples) with
// histogram ranges covering Figure 3's axes.
type Fig3Options struct {
	Samples int
	Seed    int64
	Bins    int
	SNRLo   float64
	SNRHi   float64
	LossLo  float64
	LossHi  float64
}

// Normalize fills defaults in place.
func (o *Fig3Options) Normalize() {
	if o.Samples == 0 {
		o.Samples = 100_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Bins == 0 {
		o.Bins = 60
	}
	if o.SNRLo == 0 && o.SNRHi == 0 {
		o.SNRLo, o.SNRHi = 5, 45 // Figure 3a spans roughly 5..25+ dB
	}
	if o.LossLo == 0 && o.LossHi == 0 {
		o.LossLo, o.LossHi = -5, 0 // Figure 3b spans roughly -4..0 dB
	}
}

// Fig3 reproduces Figure 3 for one application: it draws random mappings
// on the app's mesh + Crux network and accumulates the worst-case SNR and
// power-loss distributions.
func Fig3(app string, opts Fig3Options) (*Fig3Result, error) {
	opts.Normalize()
	prob, err := problemFor(app, false, core.MaximizeSNR)
	if err != nil {
		return nil, err
	}
	snrHist, err := stats.NewHistogram(opts.SNRLo, opts.SNRHi, opts.Bins)
	if err != nil {
		return nil, err
	}
	lossHist, err := stats.NewHistogram(opts.LossLo, opts.LossHi, opts.Bins)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{
		App:      app,
		Samples:  opts.Samples,
		SNRHist:  snrHist,
		LossHist: lossHist,
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for i := 0; i < opts.Samples; i++ {
		m, err := core.RandomMapping(rng, prob.NumTasks(), prob.NumTiles())
		if err != nil {
			return nil, err
		}
		s, err := prob.Evaluate(m)
		if err != nil {
			return nil, err
		}
		res.SNRHist.Add(s.WorstSNRDB)
		res.LossHist.Add(s.WorstLossDB)
		res.SNRSummary.Add(s.WorstSNRDB)
		res.LossSummary.Add(s.WorstLossDB)
	}
	return res, nil
}

// Fig3All runs the distribution study for several applications sharded
// over the sweep engine's worker pool (each app is one unit of work; the
// per-app sampling itself is seed-deterministic and unchanged, so the
// worker count never changes the histograms). Results come back in input
// order. workers <= 0 means GOMAXPROCS.
func Fig3All(apps []string, opts Fig3Options, workers int) ([]*Fig3Result, error) {
	results := make([]*Fig3Result, len(apps))
	err := sweep.ForEach(context.Background(), len(apps), workers, func(_ context.Context, i int) error {
		res, err := Fig3(apps[i], opts)
		if err != nil {
			return fmt.Errorf("%s: %w", apps[i], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
