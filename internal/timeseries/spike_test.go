package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIPIDDeltaWraparound(t *testing.T) {
	cases := []struct {
		a, b uint16
		want uint16
	}{
		{0, 5, 5},
		{100, 100, 0},
		{0xFFFE, 3, 5},
		{0xFFFF, 0, 1},
		{5, 3, 0xFFFE}, // backwards reads as a huge forward jump
	}
	for _, c := range cases {
		if got := IPIDDelta(c.a, c.b); got != c.want {
			t.Errorf("IPIDDelta(%#x, %#x) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIPIDDeltaAdditiveProperty(t *testing.T) {
	// delta(a, a+k) == k for all a, k (mod 2^16).
	f := func(a, k uint16) bool {
		return IPIDDelta(a, a+k) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthSeries(t *testing.T) {
	gs := GrowthSeries([]uint16{10, 12, 15, 0xFFFF, 4})
	want := []float64{2, 3, float64(uint16(0xFFFF - 15)), 5}
	if len(gs) != len(want) {
		t.Fatalf("len = %d, want %d", len(gs), len(want))
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Errorf("gs[%d] = %v, want %v", i, gs[i], want[i])
		}
	}
	if GrowthSeries([]uint16{1}) != nil {
		t.Fatal("single sample should produce nil series")
	}
}

func TestDetectorFindsObviousSpike(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pre := make([]float64, 10)
	for i := range pre {
		pre[i] = 3 + rng.Float64() // background ~3 pkt/interval
	}
	post := []float64{3.2, 14.1, 3.4, 3.1} // +10 spike at index 1
	res := NewDetector().Detect(pre, post)
	if len(res.Spikes) != 1 {
		t.Fatalf("spikes = %+v, want exactly one", res.Spikes)
	}
	if res.Spikes[0].Index != 1 {
		t.Fatalf("spike index = %d, want 1", res.Spikes[0].Index)
	}
	if !res.Usable {
		t.Fatalf("low-noise vVP should be usable (FN=%v)", res.FNRate)
	}
}

func TestDetectorNoSpikeInFlatTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pre := make([]float64, 10)
	post := make([]float64, 6)
	for i := range pre {
		pre[i] = 5 + rng.NormFloat64()*0.3
	}
	for i := range post {
		post[i] = 5 + rng.NormFloat64()*0.3
	}
	res := NewDetector().Detect(pre, post)
	if len(res.Spikes) != 0 {
		t.Fatalf("false spikes detected: %+v", res.Spikes)
	}
}

func TestDetectorUnusableWhenNoisy(t *testing.T) {
	// Background noise so large that a 10-packet spike is undetectable.
	rng := rand.New(rand.NewSource(77))
	pre := make([]float64, 12)
	for i := range pre {
		pre[i] = 200 + rng.NormFloat64()*80
	}
	res := NewDetector().Detect(pre, []float64{230})
	if res.Usable {
		t.Fatalf("high-noise vVP should be excluded (FN=%v)", res.FNRate)
	}
}

func TestDetectorEmptyPost(t *testing.T) {
	res := NewDetector().Detect([]float64{1, 2, 3}, nil)
	if res.Usable || len(res.Spikes) != 0 {
		t.Fatal("empty post window must be unusable with no spikes")
	}
}

func TestDetectorFalsePositiveRate(t *testing.T) {
	// Under the null (no spike) the per-point rejection rate should be
	// near alpha. Aggregate over many trials.
	det := NewDetector()
	trials, points, fp := 200, 5, 0
	for s := 0; s < trials; s++ {
		rng := rand.New(rand.NewSource(int64(1000 + s)))
		pre := make([]float64, 10)
		post := make([]float64, points)
		for i := range pre {
			pre[i] = 4 + rng.NormFloat64()
		}
		for i := range post {
			post[i] = 4 + rng.NormFloat64()
		}
		fp += len(det.Detect(pre, post).Spikes)
	}
	rate := float64(fp) / float64(trials*points)
	// Small-sample fits inflate the rate somewhat; it must stay well below
	// a naive threshold detector's but need not be exactly 5%.
	if rate > 0.15 {
		t.Fatalf("false positive rate %v too high", rate)
	}
}

func TestDetectorTrendingBackground(t *testing.T) {
	// A vVP whose background rate ramps up (nonstationary) must not fire
	// just because of the trend — this is why the paper uses ARIMA.
	pre := make([]float64, 12)
	for i := range pre {
		pre[i] = float64(2 + i) // deterministic ramp: 2,3,...,13
	}
	post := []float64{14, 15, 16} // ramp continues, no spike
	res := NewDetector().Detect(pre, post)
	for _, s := range res.Spikes {
		if s.Excess > 5 {
			t.Fatalf("trend misread as spike: %+v", s)
		}
	}
}

func TestMeanModelFallback(t *testing.T) {
	m := NewMeanModel([]float64{4, 4, 4, 4})
	mean, sd := m.Forecast(3)
	for i := range mean {
		if mean[i] != 4 {
			t.Fatalf("mean[%d] = %v, want 4", i, mean[i])
		}
		if sd[i] <= 0 {
			t.Fatalf("sd[%d] = %v, want > 0 floor", i, sd[i])
		}
	}
}

func TestMeanModelEmptySeries(t *testing.T) {
	m := NewMeanModel(nil)
	mean, sd := m.Forecast(1)
	if math.IsNaN(mean[0]) || math.IsNaN(sd[0]) {
		t.Fatal("empty-series fallback must not produce NaN")
	}
}

func TestFitAutoStationaryPicksARMA(t *testing.T) {
	x := genAR1(400, 1, 0.4, 1, 55)
	f := FitAuto(x, 0.05)
	if _, ok := f.(*ARMA); !ok {
		t.Fatalf("FitAuto on stationary series returned %T, want *ARMA", f)
	}
}

func TestFitAutoRandomWalkPicksARIMA(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := make([]float64, 400)
	for i := 1; i < len(x); i++ {
		x[i] = x[i-1] + rng.NormFloat64()
	}
	f := FitAuto(x, 0.05)
	if _, ok := f.(*ARIMA); !ok {
		t.Fatalf("FitAuto on random walk returned %T, want *ARIMA", f)
	}
}

func TestFitAutoTinySeriesFallsBack(t *testing.T) {
	f := FitAuto([]float64{1, 2}, 0.05)
	if _, ok := f.(*MeanModel); !ok {
		t.Fatalf("FitAuto on tiny series returned %T, want *MeanModel", f)
	}
}

func TestARIMAForecastRandomWalkWithDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := make([]float64, 2000)
	for i := 1; i < len(x); i++ {
		x[i] = x[i-1] + 2 + rng.NormFloat64()*0.5
	}
	m, err := FitARIMA(x, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	mean, sd := m.Forecast(5)
	last := x[len(x)-1]
	// Forecast should continue the drift: ~last + 2k.
	for k := 0; k < 5; k++ {
		want := last + 2*float64(k+1)
		if math.Abs(mean[k]-want) > 3 {
			t.Fatalf("forecast[%d] = %v, want ~%v", k, mean[k], want)
		}
	}
	for i := 1; i < len(sd); i++ {
		if sd[i] < sd[i-1] {
			t.Fatalf("integrated sd must grow: %v", sd)
		}
	}
}

func TestFitARIMANegativeD(t *testing.T) {
	if _, err := FitARIMA(make([]float64, 50), 1, -1, 0); err == nil {
		t.Fatal("expected error for negative d")
	}
}

// TestDetectorShortWindows drives the detector through the degenerate fit
// windows a faulty round actually produces (lost probes shrink pre below any
// model's minimum) and asserts each case declares itself unusable instead of
// fabricating spikes from a near-empty fit.
func TestDetectorShortWindows(t *testing.T) {
	d := NewDetector()
	cases := []struct {
		name       string
		pre, post  []float64
		wantUsable bool
		wantSpikes int
	}{
		{name: "empty pre", pre: nil, post: []float64{12}, wantUsable: false},
		{name: "single sample", pre: []float64{2}, post: []float64{12, 2}, wantUsable: false},
		{name: "two samples", pre: []float64{2, 3}, post: []float64{12}, wantUsable: false},
		{name: "three samples", pre: []float64{2, 3, 2}, post: []float64{12}, wantUsable: false},
		{name: "empty post", pre: []float64{2, 3, 2, 3, 2, 3, 2, 3, 2, 3}, post: nil, wantUsable: false},
		{name: "both empty", pre: nil, post: nil, wantUsable: false},
		{
			name: "four flat samples usable",
			pre:  []float64{2, 2, 2, 2}, post: []float64{2, 14, 2},
			wantUsable: true, wantSpikes: 1,
		},
		{
			name: "constant-zero background",
			pre:  []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, post: []float64{0, 12, 0},
			wantUsable: true, wantSpikes: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := d.Detect(tc.pre, tc.post)
			if res.Usable != tc.wantUsable {
				t.Fatalf("Usable = %v, want %v (FNRate %.3f)", res.Usable, tc.wantUsable, res.FNRate)
			}
			if !tc.wantUsable && len(res.Spikes) != 0 {
				t.Fatalf("unusable result still reported %d spikes", len(res.Spikes))
			}
			if tc.wantUsable && len(res.Spikes) != tc.wantSpikes {
				t.Fatalf("got %d spikes, want %d", len(res.Spikes), tc.wantSpikes)
			}
		})
	}
}

// TestDetectorShortWindowNoFalseSpikes sweeps every pre length from 0 to 12
// over pure Poisson-ish noise with a noisy post window and checks the
// detector never turns sampling noise into a spike, however short the fit.
func TestDetectorShortWindowNoFalseSpikes(t *testing.T) {
	d := NewDetector()
	noise := []float64{3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 1, 4}
	for n := 0; n <= len(noise); n++ {
		res := d.Detect(noise[:n], []float64{4, 2, 5, 3})
		if len(res.Spikes) != 0 {
			t.Fatalf("pre length %d: spurious spikes %+v", n, res.Spikes)
		}
	}
}

// TestDetectInMatchesDetect: detection through a reused Workspace is
// bit-identical to detection on the heap — same spikes, same z-scores, same
// FN rate — over stationary noise, ramps (the trend-model path), constant
// and too-short windows, with the workspace carried from one call to the
// next.
func TestDetectInMatchesDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ws Workspace
	d := NewDetector()
	paths := map[string]int{}
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(14)
		pre := make([]float64, n)
		slope := 0.0
		switch trial % 4 {
		case 1:
			slope = 3 + rng.Float64()*5 // a genuine ramp
		case 2:
			slope = rng.Float64() // a weak one
		}
		lambda := rng.Float64() * 12
		for i := range pre {
			pre[i] = math.Floor(slope*float64(i) + lambda + rng.NormFloat64()*math.Sqrt(lambda))
			if trial%4 == 3 {
				pre[i] = 5 // constant window: degenerate ADF, singular fits
			}
		}
		post := make([]float64, 1+rng.Intn(15))
		for i := range post {
			post[i] = math.Floor(slope*float64(n+i) + lambda + rng.NormFloat64()*math.Sqrt(lambda))
			if rng.Intn(5) == 0 {
				post[i] += 10
			}
		}
		want := d.Detect(pre, post)
		got := d.DetectIn(&ws, pre, post)
		if got.Usable != want.Usable || math.Float64bits(got.FNRate) != math.Float64bits(want.FNRate) ||
			len(got.Spikes) != len(want.Spikes) {
			t.Fatalf("trial %d: workspace result %+v, heap result %+v", trial, got, want)
		}
		for i := range want.Spikes {
			g, w := got.Spikes[i], want.Spikes[i]
			if g.Index != w.Index || math.Float64bits(g.Z) != math.Float64bits(w.Z) || math.Float64bits(g.Excess) != math.Float64bits(w.Excess) {
				t.Fatalf("trial %d spike %d: workspace %+v, heap %+v", trial, i, g, w)
			}
		}
		switch {
		case n < 4:
			paths["short"]++
		case len(want.Spikes) > 0:
			paths["spikes"]++
		default:
			paths["quiet"]++
		}
	}
	if paths["short"] == 0 || paths["spikes"] < 100 || paths["quiet"] < 100 {
		t.Fatalf("fixture did not cover the paths: %v", paths)
	}
}
