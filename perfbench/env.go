package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runEnv records the environment beside every run. These are diagnostics
// only: a run is never dropped because of them.
type runEnv struct {
	nproc      int
	gomaxprocs int
	goVersion  string
	gogc       string
	startCPU   cpuTicks
	stealPct   float64
	stealOK    bool
}

// clockTicks is the unit of /proc/stat and /proc/self/stat: Linux
// reports CPU and start times in USER_HZ, 1/100 s.
const clockTicks = 100

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	total, steal uint64
	ok           bool
}

// stealTime returns the stolen ticks as a duration; 0 when unknown.
func (t cpuTicks) stealTime() time.Duration {
	return time.Duration(t.steal) * time.Second / clockTicks
}

func readEnv() *runEnv {
	return &runEnv{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		gogc:       os.Getenv("GOGC"),
		startCPU:   readCPUTicks(),
	}
}

// finish computes the share of CPU time stolen by the hypervisor since
// readEnv.
func (e *runEnv) finish() {
	end := readCPUTicks()
	if e.startCPU.ok && end.ok && end.total > e.startCPU.total {
		e.stealPct = 100 * float64(end.steal-e.startCPU.steal) / float64(end.total-e.startCPU.total)
		e.stealOK = true
	}
}

func (e *runEnv) print(w io.Writer) {
	steal := "unavailable"
	if e.stealOK {
		steal = fmt.Sprintf("%.2f%%", e.stealPct)
	}
	gogc := e.gogc
	if gogc == "" {
		gogc = "default"
	}
	fmt.Fprintf(w, "env nproc=%d gomaxprocs=%d go=%s gogc=%s cpu_steal=%s\n",
		e.nproc, e.gomaxprocs, e.goVersion, gogc, steal)
}

// readCPUTicks parses the first line of /proc/stat:
// cpu user nice system idle iowait irq softirq steal ...
func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuTicks{}
	}
	return parseCPUTicks(line)
}

func parseCPUTicks(line string) cpuTicks {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// processAge returns how long ago the kernel started this process: the
// time since boot (/proc/uptime) less the process's start time since
// boot (/proc/self/stat). Both count in 1/100 s, so the result does too.
func processAge() (time.Duration, error) {
	stat, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, err
	}
	// The command name is in parentheses and may hold spaces; the fields
	// after it start at field 3, so starttime (field 22) is the 20th.
	fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(fields) < 20 {
		return 0, fmt.Errorf("short /proc/self/stat")
	}
	start, err := strconv.ParseUint(fields[19], 10, 64)
	if err != nil {
		return 0, err
	}
	up, err := os.ReadFile("/proc/uptime")
	if err != nil {
		return 0, err
	}
	upFields := strings.Fields(string(up))
	if len(upFields) == 0 {
		return 0, fmt.Errorf("empty /proc/uptime")
	}
	upSec, err := strconv.ParseFloat(upFields[0], 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(upSec*float64(time.Second)) - time.Duration(start)*time.Second/clockTicks, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peaks collects the peak resident set size of each chunk of a timed
// phase: a sweep, a pass, or a second of service load. The metric is
// their median, so where one garbage collection happens to fall moves one
// sample, not the run, and growth during the timed phase shows even when
// set-up peaked higher.
type peaks struct {
	reset bool // the kernel let the chunk's start reset the high-water mark
	mib   []float64
}

// start begins a chunk: VmHWM restarts from the current RSS.
func (p *peaks) start() {
	p.reset = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// stop ends a chunk and records its VmHWM.
func (p *peaks) stop() {
	if !p.reset {
		return
	}
	if v, err := peakRSSMiB(); err == nil {
		p.mib = append(p.mib, v)
	}
}

// report adds peak_rss_mb: the median chunk peak, or VmHWM since process
// start where the kernel does not allow the reset.
func (p *peaks) report(m *report, chunks string) error {
	if len(p.mib) > 0 {
		m.add("peak_rss_mb", median(p.mib), "MiB",
			fmt.Sprintf("median over %d %s of VmHWM, reset at the start of each", len(p.mib), chunks))
		return nil
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	m.add("peak_rss_mb", rss, "MiB", "VmHWM since process start: /proc/self/clear_refs refused the reset")
	return nil
}

// peakRSSMiB returns the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[2] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
