package detect

import (
	"encoding/binary"
	"testing"
)

// encodeIDs is FuzzDetect's input for a series of IP-ID samples.
func encodeIDs(ids []uint16) []byte {
	b := make([]byte, 0, 2*len(ids))
	for _, id := range ids {
		b = binary.BigEndian.AppendUint16(b, id)
	}
	return b
}

// counterSeries is a vVP's counter seen at the 24 probes: step packets per
// interval, plus burst at the injection and echo at the RTO echo.
func counterSeries(start, step, burst, echo uint16) []uint16 {
	ids := make([]uint16, preProbes+postProbes)
	id := start
	for i := range ids {
		ids[i] = id
		id += step + uint16(i%3) // a little background jitter
		switch i {
		case preProbes - 1:
			id += burst
		case preProbes - 1 + int(rto/probeInterval):
			id += echo
		}
	}
	return ids
}

// FuzzDetect drives classify with up to 24 IP-ID samples decoded from the
// input, two bytes each. It must not panic; FNRate stays in [0, 1]; every
// spike the detector reports lies inside the post window; and on a full
// series Usable holds exactly when FNRate ≤ α. Every fit the detector can
// run on the input's growth series — the pre window classify fits and the
// whole series — is held, bit for bit, to the full ols reference: AR(1) and
// AR(2) without standard errors, the trend and ADF regressions with
// coefficient 1's.
func FuzzDetect(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeIDs([]uint16{7}))
	f.Add(encodeIDs(counterSeries(100, 2, 10, 0)))     // no filtering
	f.Add(encodeIDs(counterSeries(100, 2, 10, 10)))    // outbound filtering
	f.Add(encodeIDs(counterSeries(100, 2, 0, 0)))      // inbound filtering
	f.Add(encodeIDs(counterSeries(0xfff0, 1, 10, 10))) // wraps the 16-bit ring
	f.Add(encodeIDs(counterSeries(5, 400, 10, 10)))    // too noisy to use
	f.Add(encodeIDs(counterSeries(100, 0, 0, 0)[:20])) // short: lost probes
	f.Add(encodeIDs(make([]uint16, preProbes+postProbes)))
	ramp := make([]uint16, preProbes+postProbes)
	for i := range ramp {
		ramp[i] = uint16(i * i) // a ramping background: the trend model
	}
	f.Add(encodeIDs(ramp))

	f.Fuzz(func(t *testing.T, data []byte) {
		ids := make([]uint16, min(len(data)/2, preProbes+postProbes))
		for i := range ids {
			ids[i] = binary.BigEndian.Uint16(data[2*i:])
		}
		a := new(arena)
		a.ids = ids
		var r PairResult
		a.classify(&r)
		if !(r.FNRate >= 0 && r.FNRate <= 1) {
			t.Fatalf("FNRate %v outside [0, 1]", r.FNRate)
		}
		if len(ids) == preProbes+postProbes {
			if r.Usable != (r.FNRate <= alpha) {
				t.Fatalf("Usable = %v with FNRate %v (α = %v)", r.Usable, r.FNRate, alpha)
			}
			for _, sp := range a.work.spikes {
				if sp.index < 0 || sp.index >= postProbes {
					t.Fatalf("spike at post index %d, outside the %d-sample post window", sp.index, postProbes)
				}
			}
		} else if r.Usable || r.Outcome != Inconclusive {
			t.Fatalf("%d samples classified usable=%v %v", len(ids), r.Usable, r.Outcome)
		}

		growth := GrowthSeries(ids)
		for _, x := range [][]float64{growth[:min(len(growth), preProbes-1)], growth} {
			checkFits(t, x)
		}
	})
}

// checkFits holds fitOLS to ols on each regression the detector builds
// from x.
func checkFits(t *testing.T, x []float64) {
	t.Helper()
	check := func(name string, a matrix, b []float64, se1 bool) {
		t.Helper()
		got, gotOK := fitOLS(new(scratch), &a, b, se1)
		want, wantOK := ols(new(scratch), &a, b)
		if d := sameFit(got, gotOK, want, wantOK, se1); d != "" {
			t.Fatalf("%s fit of %v: %s", name, x, d)
		}
	}
	sc := new(scratch)
	for p := 1; p <= 2; p++ {
		if len(x) > p {
			a, b := arDesign(sc, x, p)
			check("AR", a, b, false)
		}
	}
	if len(x) > 0 {
		check("trend", trendDesign(sc, len(x)), x, true)
	}
	if len(x) >= 8 {
		a, b := adfDesign(sc, x)
		check("ADF", a, b, true)
	}
}
