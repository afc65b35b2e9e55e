package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p90 needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of samples, the
// number of samples beyond it, and whether that number reaches
// minBeyond. samples is not modified.
func percentile(samples []float64, p float64) (value float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean; 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// call is one timed searcher run.
type call struct {
	algo string
	rate
}

// families groups the searchers by the evaluation path that does their
// work: incremental swaps, batch reseats, or full evaluations.
var families = map[string]string{
	"sa": "swap", "tabu": "swap", "rpbla": "swap",
	"ga": "batch", "memetic": "batch",
	"rs": "full",
}

// familyNames lists the families in report order.
var familyNames = []string{"swap", "batch", "full"}

// clock is one reading of the clocks a rate is taken over: wall time,
// the process's CPU time, and the CPU time the hypervisor stole from the
// whole machine.
type clock struct {
	wall  time.Time
	cpu   time.Duration
	steal time.Duration
}

func readClock() clock {
	return clock{wall: time.Now(), cpu: cpuTime(), steal: readCPUTicks().stealTime()}
}

// since returns the interval from c to now as a rate without work, for
// work that keeps `cores` CPUs busy.
func (c clock) since(cores int) rate {
	n := readClock()
	return rate{wall: n.wall.Sub(c.wall), cpu: n.cpu - c.cpu, steal: n.steal - c.steal, cores: cores}
}

// sinceOnCPU returns the interval from c to now as a rate without work,
// for work that never waits: one search at a time on one goroutine. Its
// time is the process's CPU time.
func (c clock) sinceOnCPU() rate {
	r := c.since(1)
	r.onCPU = true
	return r
}

// busyCores is how many CPUs `workers` goroutines of work can keep busy.
func busyCores(workers int) int { return max(1, min(workers, runtime.NumCPU())) }

// rate is work done over an interval by code that keeps `cores` CPUs
// busy. Rates are per second of the wall time the program had: wall
// time minus the time the hypervisor stole, spread over the busy cores.
// Idle workers, blocking and a sweep's tail stay in the time, while the
// stalls a shared host's neighbours cause leave it.
//
// Work that never waits (onCPU) is timed by the process's CPU time
// instead. Steal is counted for the whole machine, so for work on one of
// several cores it cannot be told from steal on the others: at 28 %
// steal on 2 cores, subtracting it overstated a one-search rate by 40 %,
// while the CPU-second rate moved 8 %.
type rate struct {
	work  int
	wall  time.Duration
	cpu   time.Duration
	steal time.Duration // stolen from all CPUs over the interval
	cores int
	onCPU bool
}

// plus sums two rates over disjoint intervals.
func (r rate) plus(o rate) rate {
	return rate{work: r.work + o.work, wall: r.wall + o.wall, cpu: r.cpu + o.cpu,
		steal: r.steal + o.steal, cores: max(r.cores, o.cores), onCPU: r.onCPU || o.onCPU}
}

// effective returns the time the rate is taken over: CPU time for work
// that never waits, else wall time less the stolen time of the busy
// cores.
func (r rate) effective() time.Duration {
	if r.onCPU && r.cpu > 0 {
		return r.cpu
	}
	if t := r.wall - r.steal/time.Duration(max(r.cores, 1)); t > 0 {
		return t
	}
	return r.wall
}

// perSecond returns work per second of effective time; 0 without time.
func (r rate) perSecond() float64 { return per(r.work, r.effective()) }

// perWallSecond and perCPUSecond are the plain rates, for the log.
func (r rate) perWallSecond() float64 { return per(r.work, r.wall) }
func (r rate) perCPUSecond() float64  { return per(r.work, r.cpu) }

func per(work int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(work) / d.Seconds()
}

// medianRate returns the median of the rates' perSecond values; 0 for
// none.
func medianRate(rates []rate) float64 {
	v := make([]float64, len(rates))
	for i, r := range rates {
		v[i] = r.perSecond()
	}
	return median(v)
}

// fmtRates lists the rates as reported, per wall second and per CPU
// second, for the run's log.
func fmtRates(rates []rate) string {
	adj := make([]float64, len(rates))
	wall := make([]float64, len(rates))
	cpu := make([]float64, len(rates))
	for i, r := range rates {
		adj[i], wall[i], cpu[i] = r.perSecond(), r.perWallSecond(), r.perCPUSecond()
	}
	return "reported " + fmtValues(adj) + " wall " + fmtValues(wall) + " cpu " + fmtValues(cpu)
}

// fmtValues lists values compactly, for the run's log.
func fmtValues(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(x, 'g', 5, 64)
	}
	return s + "]"
}

// sumBy sums calls into one rate per key, each over its own calls' time.
func sumBy(calls []call, key func(call) string) map[string]rate {
	out := map[string]rate{}
	for _, c := range calls {
		k := key(c)
		out[k] = out[k].plus(c.rate)
	}
	return out
}

func familyOf(c call) string { return families[c.algo] }
func algoOf(c call) string   { return c.algo }

// sweepTail returns how long the slowest worker ran on after the first
// worker found no cell left: with dynamic dispatch over `workers`
// workers, the first worker goes idle at completion number
// n-workers+1, and the sweep ends at the last completion.
func sweepTail(completions []time.Duration, workers int) (time.Duration, bool) {
	n := len(completions)
	if workers < 1 || n < workers {
		return 0, false
	}
	s := append([]time.Duration(nil), completions...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[n-1] - s[n-workers], true
}
