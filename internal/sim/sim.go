// Package sim is a discrete-event simulator for circuit-switched photonic
// NoCs: it plays the mapped application's traffic over the network and
// measures packet latency, throughput, blocking and link utilization.
//
// PhoNoCMap proper is a static worst-case analysis tool; this simulator
// is an extension (documented in DESIGN.md) that closes the loop the
// paper's introduction motivates — "explore how mapping solutions impact
// the performance of a particular on-chip optical design" — by showing
// how the statically optimized mappings behave under dynamic load.
//
// Model: single-wavelength circuit switching. Each CG edge is a flow
// whose packets arrive as a Poisson process with rate proportional to
// the edge bandwidth. A packet must reserve every link of its
// (deterministic, dimension-order) path atomically; while any link is
// held by another transfer the request waits in arrival order. A
// reserved circuit holds its links for the electrical setup time plus
// the optical serialization time of the packet, then releases them.
// Atomic reservation cannot deadlock and matches the conservative
// path-setup protocols of photonic circuit switching.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"phonocmap/internal/cg"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
)

// Config parameterizes a simulation run. The zero value is completed by
// Normalize.
type Config struct {
	// PacketBits is the packet size in bits (default 4096: a 512-byte
	// burst).
	PacketBits float64
	// LinkBandwidthGbps is the optical line rate per wavelength
	// (default 40 Gb/s).
	LinkBandwidthGbps float64
	// SetupNsPerHop is the electrical path-setup latency per hop
	// (default 1 ns).
	SetupNsPerHop float64
	// DurationNs is the simulated time (default 100 000 ns).
	DurationNs float64
	// WarmupNs discards packets generated before this time from the
	// latency statistics (default 10% of DurationNs).
	WarmupNs float64
	// LoadScale multiplies every CG edge bandwidth (default 1). Use it
	// to sweep the load axis.
	LoadScale float64
	// Seed drives the Poisson arrivals (default 1).
	Seed int64
}

// Normalize fills defaults in place.
func (c *Config) Normalize() {
	if c.PacketBits == 0 {
		c.PacketBits = 4096
	}
	if c.LinkBandwidthGbps == 0 {
		c.LinkBandwidthGbps = 40
	}
	if c.SetupNsPerHop == 0 {
		c.SetupNsPerHop = 1
	}
	if c.DurationNs == 0 {
		c.DurationNs = 100_000
	}
	if c.WarmupNs == 0 {
		c.WarmupNs = c.DurationNs / 10
	}
	if c.LoadScale == 0 {
		c.LoadScale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Validate checks a normalized Config: finite values, a positive packet
// size and line rate, a non-negative setup latency, a warm-up inside a
// positive window and a positive load scale. Run applies it, and so does
// the scenario layer when it admits a simulation, so the two reject the
// same configs.
func (c Config) Validate() error {
	for _, v := range [...]float64{c.PacketBits, c.LinkBandwidthGbps, c.SetupNsPerHop, c.DurationNs, c.WarmupNs, c.LoadScale} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: non-finite value in config %+v", c)
		}
	}
	if c.PacketBits <= 0 || c.LinkBandwidthGbps <= 0 || c.SetupNsPerHop < 0 {
		return fmt.Errorf("sim: invalid physical config %+v", c)
	}
	if c.DurationNs <= 0 || c.WarmupNs < 0 || c.WarmupNs >= c.DurationNs {
		return fmt.Errorf("sim: invalid time window warmup=%v duration=%v", c.WarmupNs, c.DurationNs)
	}
	if c.LoadScale <= 0 {
		return fmt.Errorf("sim: load scale must be positive, got %v", c.LoadScale)
	}
	return nil
}

// ExpectedPackets returns how many packets a run of the application
// under the normalized config generates on average: each flow's rate at
// the config's load scale, over the window, in packets of PacketBits.
func (c Config) ExpectedPackets(app *cg.Graph) float64 {
	packets := 0.0
	for _, e := range app.Edges() {
		packets += flowRateGbps(e.Bandwidth, c.LoadScale) * c.DurationNs / c.PacketBits
	}
	return packets
}

// flowRateGbps is the rate in Gb/s of a flow whose CG edge carries mbps
// MB/s, at load scale load.
func flowRateGbps(mbps, load float64) float64 { return mbps * 8 / 1000 * load }

// Stats summarizes one simulation run.
type Stats struct {
	// PacketsGenerated counts arrivals inside the measurement window;
	// PacketsDelivered those whose transfer completed before the end.
	PacketsGenerated int
	PacketsDelivered int
	// Latency percentiles over delivered packets (ns), from generation
	// to circuit release.
	MeanLatencyNs float64
	P50LatencyNs  float64
	P95LatencyNs  float64
	MaxLatencyNs  float64
	// MeanWaitNs is the mean time spent blocked waiting for links.
	MeanWaitNs float64
	// ThroughputGbps is delivered payload over the measurement window.
	ThroughputGbps float64
	// OfferedGbps is the aggregate offered load.
	OfferedGbps float64
	// MeanLinkUtilization / MaxLinkUtilization over links that carried
	// any traffic.
	MeanLinkUtilization float64
	MaxLinkUtilization  float64
	// BlockedReservations counts reservation attempts that found a busy
	// link (each packet may be counted once per failed attempt epoch).
	BlockedReservations int
}

// event is a simulator event: a packet arrival or a circuit release.
type event struct {
	timeNs float64
	kind   uint8 // 0 arrival, 1 release
	flow   int
	packet int
	seq    int // tiebreaker for determinism
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].timeNs != h[j].timeNs {
		return h[i].timeNs < h[j].timeNs
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// flow is one CG edge realized on the network.
type flow struct {
	links      []int // link indices along the path
	rateGbps   float64
	interArrNs float64 // mean inter-arrival time
}

// waiting is a queued packet reservation request.
type waiting struct {
	flow    int
	arrived float64
	seq     int
}

// Run simulates the mapped application on the network.
func Run(nw *network.Network, app *cg.Graph, m core.Mapping, cfg Config) (Stats, error) {
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if err := m.Validate(nw.NumTiles()); err != nil {
		return Stats{}, err
	}
	if len(m) != app.NumTasks() {
		return Stats{}, fmt.Errorf("sim: mapping covers %d tasks, app has %d", len(m), app.NumTasks())
	}

	// Index links by (from, dir).
	t := nw.Topology()
	linkIdx := make(map[[2]int]int, len(t.Links()))
	for i, l := range t.Links() {
		linkIdx[[2]int{int(l.From), int(l.Dir)}] = i
	}
	numLinks := len(t.Links())

	// Build flows from CG edges.
	flows := make([]flow, 0, app.NumEdges())
	for _, e := range app.Edges() {
		src, dst := m[e.Src], m[e.Dst]
		links, err := nw.Routing().Route(t, src, dst)
		if err != nil {
			return Stats{}, fmt.Errorf("sim: routing flow %d->%d: %w", src, dst, err)
		}
		idxs := make([]int, len(links))
		for i, l := range links {
			idxs[i] = linkIdx[[2]int{int(l.From), int(l.Dir)}]
		}
		rate := flowRateGbps(e.Bandwidth, cfg.LoadScale)
		if rate <= 0 {
			continue
		}
		meanInter := cfg.PacketBits / (rate) // ns: bits / (Gb/s) = ns
		flows = append(flows, flow{links: idxs, rateGbps: rate, interArrNs: meanInter})
	}
	if len(flows) == 0 {
		return Stats{}, fmt.Errorf("sim: no flows with positive bandwidth")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	serializeNs := cfg.PacketBits / cfg.LinkBandwidthGbps

	var events eventHeap
	seq := 0
	push := func(e event) {
		e.seq = seq
		seq++
		heap.Push(&events, e)
	}
	expo := func(mean float64) float64 { return rng.ExpFloat64() * mean }
	for fi, f := range flows {
		push(event{timeNs: expo(f.interArrNs), kind: 0, flow: fi})
	}

	linkBusy := make([]bool, numLinks)
	linkBusyTime := make([]float64, numLinks)
	var queue []waiting
	packetCount := make([]int, len(flows))

	var st Stats
	var latencies []float64
	var waits []float64

	reserve := func(fi int) bool {
		for _, li := range flows[fi].links {
			if linkBusy[li] {
				return false
			}
		}
		for _, li := range flows[fi].links {
			linkBusy[li] = true
		}
		return true
	}
	startTransfer := func(w waiting, now float64) {
		f := flows[w.flow]
		hold := cfg.SetupNsPerHop*float64(len(f.links)) + serializeNs
		for _, li := range f.links {
			linkBusyTime[li] += hold
		}
		push(event{timeNs: now + hold, kind: 1, flow: w.flow, packet: w.seq})
		if w.arrived >= cfg.WarmupNs {
			lat := now + hold - w.arrived
			latencies = append(latencies, lat)
			waits = append(waits, now-w.arrived)
			st.PacketsDelivered++
		}
	}

	for events.Len() > 0 {
		ev := heap.Pop(&events).(event)
		if ev.timeNs > cfg.DurationNs {
			break
		}
		switch ev.kind {
		case 0: // arrival
			fi := ev.flow
			pkt := packetCount[fi]
			packetCount[fi]++
			if ev.timeNs >= cfg.WarmupNs {
				st.PacketsGenerated++
			}
			w := waiting{flow: fi, arrived: ev.timeNs, seq: pkt}
			if reserve(fi) {
				startTransfer(w, ev.timeNs)
			} else {
				st.BlockedReservations++
				queue = append(queue, w)
			}
			// Schedule the next arrival of this flow.
			push(event{timeNs: ev.timeNs + expo(flows[fi].interArrNs), kind: 0, flow: fi})
		case 1: // release
			for _, li := range flows[ev.flow].links {
				linkBusy[li] = false
			}
			// Serve waiting requests in arrival order.
			remaining := queue[:0]
			for _, w := range queue {
				if reserve(w.flow) {
					startTransfer(w, ev.timeNs)
				} else {
					remaining = append(remaining, w)
				}
			}
			queue = remaining
		}
	}

	window := cfg.DurationNs - cfg.WarmupNs
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		sum := 0.0
		for _, l := range latencies {
			sum += l
		}
		st.MeanLatencyNs = sum / float64(len(latencies))
		st.P50LatencyNs = latencies[len(latencies)/2]
		st.P95LatencyNs = latencies[int(math.Ceil(0.95*float64(len(latencies))))-1]
		st.MaxLatencyNs = latencies[len(latencies)-1]
		wsum := 0.0
		for _, w := range waits {
			wsum += w
		}
		st.MeanWaitNs = wsum / float64(len(waits))
		st.ThroughputGbps = float64(st.PacketsDelivered) * cfg.PacketBits / window
	}
	for _, f := range flows {
		st.OfferedGbps += f.rateGbps
	}
	used, maxU, sumU := 0, 0.0, 0.0
	for _, bt := range linkBusyTime {
		if bt == 0 {
			continue
		}
		u := bt / cfg.DurationNs
		if u > 1 {
			u = 1
		}
		used++
		sumU += u
		if u > maxU {
			maxU = u
		}
	}
	if used > 0 {
		st.MeanLinkUtilization = sumU / float64(used)
	}
	st.MaxLinkUtilization = maxU
	return st, nil
}
