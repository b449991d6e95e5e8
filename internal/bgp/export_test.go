package bgp

import "testing"

// LowerForkGrain sets the fork crossover to grain updates per extra worker
// until the test ends, so the package's small test graphs run their
// propagation rounds on several workers. Tests that call it must not run in
// parallel with others of the package.
func LowerForkGrain(t testing.TB, grain int) {
	old := forkGrain
	forkGrain = grain
	t.Cleanup(func() { forkGrain = old })
}
