package noclock_test

import (
	"testing"

	"facilitymap/internal/analysis/analysistest"
	"facilitymap/internal/analysis/noclock"
)

func TestNoclock(t *testing.T) {
	analysistest.Run(t, "testdata", noclock.Analyzer, "trace")
}

// TestNoclockFacade covers the root-package scope: the facade's table
// build is held to the same determinism bar as the engine packages.
func TestNoclockFacade(t *testing.T) {
	analysistest.Run(t, "testdata", noclock.Analyzer, "facilitymap")
}
