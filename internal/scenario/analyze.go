package scenario

import (
	"fmt"
	"math"

	"phonocmap/internal/core"
	"phonocmap/internal/robust"
	"phonocmap/internal/sim"
	"phonocmap/internal/wdm"
)

// Report is the typed outcome of the post-optimization analysis
// pipeline: one section per requested analysis, nil for analyses the
// spec did not ask for. Reports are plain JSON-serializable data, so the
// optimization service caches and replays them verbatim alongside the
// optimization result they describe.
type Report struct {
	WDM          *WDMReport          `json:"wdm,omitempty"`
	Power        *PowerReport        `json:"power,omitempty"`
	Robustness   *RobustnessReport   `json:"robustness,omitempty"`
	LinkFailures *LinkFailuresReport `json:"link_failures,omitempty"`
	Sim          *SimReport          `json:"sim,omitempty"`
}

// WDMReport summarizes wavelength allocation for the winning mapping.
type WDMReport struct {
	// Channels is the number of wavelengths needed for contention-free
	// operation; Conflicts counts conflicting communication pairs.
	Channels  int `json:"channels"`
	Conflicts int `json:"conflicts"`
	// WorstLossDB / WorstSNRDB re-evaluate the mapping with only
	// same-channel crosstalk.
	WorstLossDB float64 `json:"worst_loss_db"`
	WorstSNRDB  float64 `json:"worst_snr_db"`
}

// PowerReport is the optical power budget feasibility of the design
// point.
type PowerReport struct {
	Feasible             bool    `json:"feasible"`
	ChannelPowerDBm      float64 `json:"channel_power_dbm"`
	TotalInjectedDBm     float64 `json:"total_injected_dbm"`
	HeadroomDB           float64 `json:"headroom_db"`
	EstimatedBER         float64 `json:"estimated_ber"`
	MaxTolerableLossDB   float64 `json:"max_tolerable_loss_db"`
	WavelengthsSupported int     `json:"wavelengths_supported"`
}

// RobustnessReport summarizes the Monte Carlo variation study. Worst
// figures are the most pessimistic finite draws — what a conservative
// designer budgets for.
type RobustnessReport struct {
	Samples     int     `json:"samples"`
	Tolerance   float64 `json:"tolerance"`
	MeanLossDB  float64 `json:"mean_loss_db"`
	StdLossDB   float64 `json:"std_loss_db"`
	WorstLossDB float64 `json:"worst_loss_db"`
	MeanSNRDB   float64 `json:"mean_snr_db"`
	StdSNRDB    float64 `json:"std_snr_db"`
	WorstSNRDB  float64 `json:"worst_snr_db"`
}

// LinkFailuresReport summarizes the exhaustive single-link-cut study.
type LinkFailuresReport struct {
	// Cuts is the number of undirected links cut (one scenario each);
	// Unreachable counts cuts that disconnected some mapped communication.
	Cuts        int `json:"cuts"`
	Unreachable int `json:"unreachable"`
	// WorstLink is the cut with the lowest surviving SNR; WorstLossDB and
	// WorstSNRDB are the worst figures over all reachable cuts.
	WorstLink   [2]int  `json:"worst_link"`
	WorstLossDB float64 `json:"worst_loss_db"`
	WorstSNRDB  float64 `json:"worst_snr_db"`
}

// SimPoint is the simulated behaviour of the mapping at one load scale.
type SimPoint struct {
	LoadScale          float64 `json:"load_scale"`
	OfferedGbps        float64 `json:"offered_gbps"`
	ThroughputGbps     float64 `json:"throughput_gbps"`
	DeliveredFraction  float64 `json:"delivered_fraction"`
	MeanLatencyNs      float64 `json:"mean_latency_ns"`
	P95LatencyNs       float64 `json:"p95_latency_ns"`
	MeanWaitNs         float64 `json:"mean_wait_ns"`
	MaxLinkUtilization float64 `json:"max_link_utilization"`
}

// SaturationDeliveredFraction is the delivered fraction below which a
// load point counts as saturated.
const SaturationDeliveredFraction = 0.95

// SimReport is the traffic simulation across the requested load points.
type SimReport struct {
	Points []SimPoint `json:"points"`
	// SaturationLoad is the largest simulated load scale whose delivered
	// fraction stayed at or above SaturationDeliveredFraction (0 when
	// even the lightest point saturated) — the mapping's usable headroom
	// on the load axis.
	SaturationLoad float64 `json:"saturation_load"`
}

// Analyze runs the compiled scenario's analysis block on a mapping and
// its score, returning nil when the spec requests no analyses. Every
// analysis is deterministic in the spec and the mapping, so reports are
// safe to cache alongside optimization results.
func (c *Compiled) Analyze(m core.Mapping, score core.Score) (*Report, error) {
	a := c.Spec.Analyses
	if a == nil {
		return nil, nil
	}
	rep := &Report{}
	if a.WDM != nil {
		alloc, err := wdm.Allocate(c.Network, c.App, m)
		if err != nil {
			return nil, fmt.Errorf("scenario: wdm: %w", err)
		}
		res, err := wdm.Evaluate(c.Network, c.App, m, alloc)
		if err != nil {
			return nil, fmt.Errorf("scenario: wdm: %w", err)
		}
		rep.WDM = &WDMReport{
			Channels:    alloc.Channels,
			Conflicts:   alloc.Conflicts,
			WorstLossDB: res.WorstLossDB,
			WorstSNRDB:  finiteOr(res.WorstSNRDB, 0),
		}
	}
	if a.Power != nil {
		pr, err := a.Power.budget().Assess(score.WorstLossDB, score.WorstSNRDB)
		if err != nil {
			return nil, fmt.Errorf("scenario: power: %w", err)
		}
		rep.Power = &PowerReport{
			Feasible:             pr.Feasible,
			ChannelPowerDBm:      pr.ChannelPowerDBm,
			TotalInjectedDBm:     pr.TotalInjectedDBm,
			HeadroomDB:           pr.HeadroomDB,
			EstimatedBER:         pr.EstimatedBER,
			MaxTolerableLossDB:   pr.MaxTolerableLossDB,
			WavelengthsSupported: pr.WavelengthsSupported,
		}
	}
	if a.Robustness != nil {
		nw := c.Network
		vr, err := robust.Variation(nw.Topology(), nw.Router(), nw.Routing(), nw.Params(),
			c.App, m, a.Robustness.Samples, a.Robustness.Tolerance, a.Robustness.Seed)
		if err != nil {
			return nil, fmt.Errorf("scenario: robustness: %w", err)
		}
		// Worst figures come from the finite-draw summaries: a crosstalk-
		// free draw has +Inf SNR, which is not representable in JSON and
		// not a pessimistic bound anyway.
		rep.Robustness = &RobustnessReport{
			Samples:     vr.Samples,
			Tolerance:   a.Robustness.Tolerance,
			MeanLossDB:  vr.Loss.Mean(),
			StdLossDB:   vr.Loss.StdDev(),
			WorstLossDB: vr.Loss.Min(),
			MeanSNRDB:   vr.SNR.Mean(),
			StdSNRDB:    vr.SNR.StdDev(),
			WorstSNRDB:  vr.SNR.Min(),
		}
	}
	if a.LinkFailures != nil {
		nw := c.Network
		frs, err := robust.LinkFailures(nw.Topology(), nw.Router(), nw.Params(), c.App, m)
		if err != nil {
			return nil, fmt.Errorf("scenario: link failures: %w", err)
		}
		lf := &LinkFailuresReport{Cuts: len(frs)}
		worstSNR := math.Inf(1)
		worstLoss := 0.0
		for _, fr := range frs {
			if fr.Unreachable {
				lf.Unreachable++
				continue
			}
			if fr.WorstLossDB < worstLoss {
				worstLoss = fr.WorstLossDB
			}
			if snr := fr.WorstSNRDB; !math.IsInf(snr, 0) && !math.IsNaN(snr) && snr < worstSNR {
				worstSNR = snr
				lf.WorstLink = [2]int{int(fr.Failed[0]), int(fr.Failed[1])}
			}
		}
		lf.WorstLossDB = worstLoss
		lf.WorstSNRDB = finiteOr(worstSNR, 0)
		rep.LinkFailures = lf
	}
	if a.Sim != nil {
		sr := &SimReport{Points: make([]SimPoint, 0, len(a.Sim.LoadScales))}
		for _, load := range a.Sim.LoadScales {
			st, err := sim.Run(c.Network, c.App, m, a.Sim.config(load))
			if err != nil {
				return nil, fmt.Errorf("scenario: sim at load %v: %w", load, err)
			}
			delivered := 0.0
			if st.PacketsGenerated > 0 {
				delivered = float64(st.PacketsDelivered) / float64(st.PacketsGenerated)
			}
			sr.Points = append(sr.Points, SimPoint{
				LoadScale:          load,
				OfferedGbps:        st.OfferedGbps,
				ThroughputGbps:     st.ThroughputGbps,
				DeliveredFraction:  delivered,
				MeanLatencyNs:      st.MeanLatencyNs,
				P95LatencyNs:       st.P95LatencyNs,
				MeanWaitNs:         st.MeanWaitNs,
				MaxLinkUtilization: st.MaxLinkUtilization,
			})
			if delivered >= SaturationDeliveredFraction && load > sr.SaturationLoad {
				sr.SaturationLoad = load
			}
		}
		rep.Sim = sr
	}
	return rep, nil
}

// finiteOr replaces non-finite values (crosstalk-free +Inf SNRs) with a
// fallback so reports stay JSON-serializable.
func finiteOr(v, fallback float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fallback
	}
	return v
}
