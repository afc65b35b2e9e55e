package determinism

import (
	"testing"

	"phonocmap/lint/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer,
		"phonocmap/internal/core",    // contract package: all checks active
		"phonocmap/internal/network", // contract package: its paths feed every score
		"phonocmap/internal/robust",  // contract package: its reports join the cached payload
		"phonocmap/internal/util",    // non-contract package: no diagnostics
	)
}
