// phonocmap-lint is the project's static-analysis suite: four analyzers
// that enforce the determinism, metric-naming, error-envelope and
// hot-path-allocation contracts at `go vet` time.
//
// Run it through the vet driver so results are cached per package:
//
//	go build -o /tmp/phonocmap-lint phonocmap/lint/cmd/phonocmap-lint
//	go vet -vettool=/tmp/phonocmap-lint ./...
package main

import (
	"phonocmap/lint/analyzers/determinism"
	"phonocmap/lint/analyzers/errenvelope"
	"phonocmap/lint/analyzers/metricname"
	"phonocmap/lint/analyzers/noalloc"
	"phonocmap/lint/unitchecker"
)

func main() {
	unitchecker.Main(
		determinism.Analyzer,
		metricname.Analyzer,
		errenvelope.Analyzer,
		noalloc.Analyzer,
	)
}
