package detect

import "testing"

// TestOffsetShiftsScheduleNotOutcome: the offset (the retry backoff hook)
// delays the whole probe schedule in virtual time; against a quiet network
// the classification must be identical at any offset, and the first-attempt
// zero offset must remain the exact schedule the calibrated tests fixed.
func TestOffsetShiftsScheduleNotOutcome(t *testing.T) {
	for _, offset := range []float64{0, 2, 4, 17.5} {
		n, client, vvp, tn := world(t, false, 2)
		res := MeasurePair(n, client, vvp.Addr, tn, 5, offset)
		if !res.Usable {
			t.Fatalf("offset %v: result unusable", offset)
		}
		if res.Outcome != NoFiltering {
			t.Fatalf("offset %v: outcome = %v, want no-filtering", offset, res.Outcome)
		}
	}
}

// TestAttemptsDefaultsToOne: MeasurePair is a single attempt; the retry
// bookkeeping lives in core.Runner's pair measurement, so the primitive must
// always report exactly one attempt.
func TestAttemptsDefaultsToOne(t *testing.T) {
	n, client, vvp, tn := world(t, true, 2)
	res := MeasurePair(n, client, vvp.Addr, tn, 5, 0)
	if res.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1", res.Attempts)
	}
}

// TestMeasurePairUnreachableVVP: a vanished vVP (the churn fault: measured
// over a view without it) must come back inconclusive-and-unusable, never a
// verdict.
func TestMeasurePairUnreachableVVP(t *testing.T) {
	n, client, vvp, tn := world(t, false, 2)
	res := MeasurePair(n.Without(vvp.Addr), client, vvp.Addr, tn, 5, 0)
	if res.Usable {
		t.Fatal("measurement against a vanished vVP claimed to be usable")
	}
	if res.Outcome != Inconclusive {
		t.Fatalf("outcome = %v, want inconclusive", res.Outcome)
	}
}

// TestMeasurePairIsolatedCloneFaults: MeasurePairIsolated routes its clones
// through Network.CloneHost so per-clone fault perturbations (IP-ID resets)
// apply; on a clean network that path must be indistinguishable from Clone.
func TestMeasurePairIsolatedCloneFaults(t *testing.T) {
	n1, c1, v1, tn1 := world(t, false, 2)
	direct := MeasurePair(n1, c1, v1.Addr, tn1, 5, 0)

	n2, c2, v2, tn2 := world(t, false, 2)
	isolated := MeasurePairIsolated(n2, c2, v2.Addr, tn2, 5, 0, true)

	if direct.Outcome != isolated.Outcome || direct.Usable != isolated.Usable {
		t.Fatalf("clean isolated run diverged: direct=%+v isolated=%+v", direct, isolated)
	}
}
