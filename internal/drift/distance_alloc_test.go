package drift

import (
	"math/rand"
	"testing"
)

// TestDistanceZeroAlloc pins the //wcc:hotpath contract on the
// feature-space gate: standardising, rotating and searching a query of the
// serving embedding's width allocate nothing per call, in-distribution or
// far out of support.
func TestDistanceZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fs := mustFit(t, gaussianRows(rng, 800, 28, 1))
	near, far := gaussianRows(rng, 1, 28, 1).Row(0), gaussianRows(rng, 1, 28, 50).Row(0)
	allocs := testing.AllocsPerRun(100, func() {
		benchSink = fs.Distance(near)
		benchSink = fs.Distance(far)
	})
	if allocs != 0 {
		t.Fatalf("FeatureStats.Distance allocates %.1f times per call pair, want 0", allocs)
	}
}
