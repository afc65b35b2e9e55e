// Package network is a determinism-analyzer fixture mimicking the
// network package: its paths feed every score, so it is a contract
// package too.
package network

import "time"

var buildNanos int64

func build() {
	_ = time.Now() // want "time.Now in a determinism-contract package"
	//phonocmap:wallclock feeds only a process-wide build-time counter
	start := time.Now()
	//phonocmap:wallclock feeds only a process-wide build-time counter
	buildNanos += int64(time.Since(start))
}
