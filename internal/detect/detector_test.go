package detect

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func genAR1(n int, c, phi, sigma float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	x[0] = c / (1 - phi)
	for i := 1; i < n; i++ {
		x[i] = c + phi*x[i-1] + rng.NormFloat64()*sigma
	}
	return x
}

// detectFresh runs one detection in a workspace of its own.
func detectFresh(pre, post []float64) spikeResult { return new(workspace).detect(pre, post) }

func TestIPIDDeltaWraparound(t *testing.T) {
	cases := []struct {
		a, b uint16
		want float64
	}{
		{0, 5, 5},
		{100, 100, 0},
		{0xFFFE, 3, 5},
		{0xFFFF, 0, 1},
		{5, 3, 0xFFFE}, // backwards reads as a huge forward jump
	}
	for _, c := range cases {
		if got := GrowthSeries([]uint16{c.a, c.b}); got[0] != c.want {
			t.Errorf("growth %#x → %#x = %v, want %v", c.a, c.b, got[0], c.want)
		}
	}
}

func TestIPIDDeltaAdditiveProperty(t *testing.T) {
	// growth(a, a+k) == k for all a, k (mod 2^16).
	f := func(a, k uint16) bool {
		return GrowthSeries([]uint16{a, a + k})[0] == float64(k)
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

func TestADFStationarySeries(t *testing.T) {
	x := genAR1(500, 1, 0.3, 1, 17)
	stat, crit, ok := adf(new(scratch), x)
	if !ok {
		t.Fatal("unexpected untestable result")
	}
	if !(stat < crit) {
		t.Fatalf("AR(1) with phi=0.3 should be detected stationary; stat=%v crit5=%v", stat, crit)
	}
}

func TestADFRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := make([]float64, 500)
	for i := 1; i < len(x); i++ {
		x[i] = x[i-1] + rng.NormFloat64()
	}
	stat, crit, ok := adf(new(scratch), x)
	if !ok {
		t.Fatal("unexpected untestable result")
	}
	if stat < crit {
		t.Fatalf("random walk should not be stationary; stat=%v crit5=%v", stat, crit)
	}
}

func TestADFTrendingSeriesNonstationary(t *testing.T) {
	// A strong linear trend plus noise is nonstationary for the
	// constant-only specification; the detector extrapolates a trend here.
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 400)
	for i := range x {
		x[i] = float64(i)*2 + rng.NormFloat64()
	}
	stat, crit, ok := adf(new(scratch), x)
	if !ok {
		t.Fatal("unexpected untestable result")
	}
	if stat < crit {
		t.Fatalf("trending series should not be stationary; stat=%v", stat)
	}
}

func TestADFConstantSeriesDegenerate(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 7
	}
	if _, _, ok := adf(new(scratch), x); ok {
		t.Fatal("constant series should be untestable (and so count as stationary)")
	}
}

func TestADFShortSeriesDegenerate(t *testing.T) {
	if _, _, ok := adf(new(scratch), []float64{1, 2, 3}); ok {
		t.Fatal("short series should be untestable")
	}
}

func TestADFCriticalValuesOrdering(t *testing.T) {
	// Small samples need a more negative statistic to reject; the value
	// approaches the asymptotic −2.86 as n grows.
	if !(adfCrit5(10) < adfCrit5(100) && adfCrit5(100) < adfCrit5(1000)) {
		t.Fatalf("critical values not increasing in n: %v %v %v", adfCrit5(10), adfCrit5(100), adfCrit5(1000))
	}
	if c := adfCrit5(1_000_000); c > -2.86 || c < -2.87 {
		t.Fatalf("asymptotic 5%% critical value = %v, want ≈ -2.86", c)
	}
}

func TestADFPowerAcrossSeeds(t *testing.T) {
	// The 5% test should reject the (true) unit-root null at most ~5% of
	// the time over many random walks; allow generous slack for a small
	// number of trials.
	rejected := 0
	const trials = 60
	for s := int64(0); s < trials; s++ {
		rng := rand.New(rand.NewSource(100 + s))
		x := make([]float64, 300)
		for i := 1; i < len(x); i++ {
			x[i] = x[i-1] + rng.NormFloat64()
		}
		if stat, crit, ok := adf(new(scratch), x); ok && stat < crit {
			rejected++
		}
	}
	if rejected > trials/5 {
		t.Fatalf("ADF rejected unit root %d/%d times, size badly off", rejected, trials)
	}
}

func TestFitARRecoverAR1(t *testing.T) {
	x := genAR1(2000, 2, 0.6, 1, 42)
	m, ok := fitAR(new(scratch), x, 1)
	if !ok {
		t.Fatal("no fit")
	}
	if math.Abs(m.phi[0]-0.6) > 0.06 {
		t.Fatalf("phi = %v, want ~0.6", m.phi[0])
	}
	if math.Abs(m.c-2) > 0.35 {
		t.Fatalf("c = %v, want ~2", m.c)
	}
	if math.Abs(m.sigma2-1) > 0.15 {
		t.Fatalf("sigma2 = %v, want ~1", m.sigma2)
	}
}

func TestFitARTooShort(t *testing.T) {
	if _, ok := fitAR(new(scratch), []float64{1, 2, 3}, 2); ok {
		t.Fatal("three samples fitted an AR(2)")
	}
}

func TestARForecastConvergesToMean(t *testing.T) {
	x := genAR1(3000, 5, 0.5, 0.5, 3)
	sc := new(scratch)
	m, ok := fitAR(sc, x, 1)
	if !ok {
		t.Fatal("no fit")
	}
	mean, sd := m.forecast(sc, 50)
	// Stationary AR(1) forecast converges to c/(1−φ) = 10.
	longRun := m.c / (1 - m.phi[0])
	if math.Abs(mean[49]-longRun) > 0.5 {
		t.Fatalf("long forecast = %v, want ~%v", mean[49], longRun)
	}
	// Prediction sd must be nondecreasing and start near sigma.
	for i := 1; i < len(sd); i++ {
		if sd[i]+1e-12 < sd[i-1] {
			t.Fatalf("sd not nondecreasing at %d: %v < %v", i, sd[i], sd[i-1])
		}
	}
	if math.Abs(sd[0]-math.Sqrt(m.sigma2)) > 1e-9 {
		t.Fatalf("sd[0] = %v, want sqrt(sigma2) = %v", sd[0], math.Sqrt(m.sigma2))
	}
}

// TestARForecastSDFollowsPsiWeights: for AR(1) with φ = 0.5 the ψ-weights
// are 1, 0.5, 0.25, …, so the k-step prediction variance is σ² Σ_{j<k} 0.25^j.
func TestARForecastSDFollowsPsiWeights(t *testing.T) {
	m := arModel{phi: []float64{0.5}, sigma2: 1, xTail: []float64{0}}
	_, sd := m.forecast(new(scratch), 5)
	want := 0.0
	for k := range sd {
		want += math.Pow(0.25, float64(k))
		if math.Abs(sd[k]*sd[k]-want) > 1e-12 {
			t.Errorf("sd[%d]² = %v, want %v", k, sd[k]*sd[k], want)
		}
	}
}

func TestARForecastZeroHorizon(t *testing.T) {
	m := arModel{phi: []float64{0.5}, sigma2: 1, xTail: []float64{0}}
	mean, sd := m.forecast(new(scratch), 0)
	if mean != nil || sd != nil {
		t.Fatal("zero horizon should return nils")
	}
}

func TestAICPrefersTrueOrder(t *testing.T) {
	x := genAR1(3000, 0, 0.7, 1, 21)
	m1, ok1 := fitAR(new(scratch), x, 1)
	m2, ok2 := fitAR(new(scratch), x, 2)
	if !ok1 || !ok2 {
		t.Fatal("no fit")
	}
	// The richer model may fit marginally better in-sample, but AIC's
	// penalty should keep the parsimonious model competitive (within the
	// 2-per-parameter penalty budget).
	if m2.aic() < m1.aic()-4 {
		t.Fatalf("AIC(AR(2)) = %v substantially beats AIC(AR(1)) = %v on AR(1) data", m2.aic(), m1.aic())
	}
}

// TestForecastStationaryPicksAR: on a stationary background forecast is the
// AR forecast of whichever of AR(1) and AR(2) has the lower AIC.
func TestForecastStationaryPicksAR(t *testing.T) {
	x := genAR1(400, 1, 0.4, 1, 55)
	mean, sd := forecast(new(scratch), x, 6)
	var best arModel
	for p := 1; p <= 2; p++ {
		if m, ok := fitAR(new(scratch), x, p); ok && (p == 1 || m.aic() < best.aic()) {
			best = m
		}
	}
	wantMean, wantSD := best.forecast(new(scratch), 6)
	if !reflect.DeepEqual(mean, wantMean) || !reflect.DeepEqual(sd, wantSD) {
		t.Fatalf("forecast %v ± %v, AR(%d) forecast %v ± %v", mean, sd, len(best.phi), wantMean, wantSD)
	}
}

// TestForecastRampPicksTrend: a ramp fails the ADF gate and its slope clears
// t > 5, so forecast extrapolates the fitted line with constant noise.
func TestForecastRampPicksTrend(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := make([]float64, 12)
	for i := range x {
		x[i] = 2 + 3*float64(i) + rng.NormFloat64()*0.3
	}
	if stat, crit, ok := adf(new(scratch), x); !ok || stat < crit {
		t.Fatalf("ramp passed the ADF gate: stat %v crit %v ok %v", stat, crit, ok)
	}
	tr, ok := fitTrend(new(scratch), x)
	if !ok || tr.tStat1() <= 5 {
		t.Fatalf("trend fit ok=%v t=%v", ok, tr.tStat1())
	}
	mean, sd := forecast(new(scratch), x, 3)
	for k := range mean {
		if want := tr.coef[0] + tr.coef[1]*float64(len(x)+k); mean[k] != want {
			t.Errorf("mean[%d] = %v, trend %v", k, mean[k], want)
		}
		if sd[k] != math.Sqrt(tr.sigma2) {
			t.Errorf("sd[%d] = %v, want the trend's residual sd %v", k, sd[k], math.Sqrt(tr.sigma2))
		}
	}
}

func TestForecastTinySeriesFallsBack(t *testing.T) {
	mean, sd := forecast(new(scratch), []float64{1, 2}, 2)
	for k := range mean {
		if mean[k] != 1.5 || sd[k] != math.Sqrt(0.5) {
			t.Fatalf("forecast %v ± %v, want the sample mean 1.5 ± %v", mean, sd, math.Sqrt(0.5))
		}
	}
}

func TestMeanModelFallback(t *testing.T) {
	mean, sd := forecast(new(scratch), []float64{4, 4, 4, 4}, 3)
	for i := range mean {
		if mean[i] != 4 {
			t.Fatalf("mean[%d] = %v, want 4", i, mean[i])
		}
		if sd[i] <= 0 {
			t.Fatalf("sd[%d] = %v, want > 0 floor", i, sd[i])
		}
	}
}

func TestDetectorFindsObviousSpike(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pre := make([]float64, 10)
	for i := range pre {
		pre[i] = 3 + rng.Float64() // background ~3 pkt/interval
	}
	post := []float64{3.2, 14.1, 3.4, 3.1} // +10 spike at index 1
	res := detectFresh(pre, post)
	if len(res.spikes) != 1 {
		t.Fatalf("spikes = %+v, want exactly one", res.spikes)
	}
	if res.spikes[0].index != 1 {
		t.Fatalf("spike index = %d, want 1", res.spikes[0].index)
	}
	if !res.usable {
		t.Fatalf("low-noise vVP should be usable (FN=%v)", res.fnRate)
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
	if res := detectFresh(pre, post); len(res.spikes) != 0 {
		t.Fatalf("false spikes detected: %+v", res.spikes)
	}
}

func TestDetectorUnusableWhenNoisy(t *testing.T) {
	// Background noise so large that a 10-packet spike is undetectable.
	rng := rand.New(rand.NewSource(77))
	pre := make([]float64, 12)
	for i := range pre {
		pre[i] = 200 + rng.NormFloat64()*80
	}
	if res := detectFresh(pre, []float64{230}); res.usable {
		t.Fatalf("high-noise vVP should be excluded (FN=%v)", res.fnRate)
	}
}

func TestDetectorEmptyPost(t *testing.T) {
	res := detectFresh([]float64{1, 2, 3}, nil)
	if res.usable || len(res.spikes) != 0 {
		t.Fatal("empty post window must be unusable with no spikes")
	}
}

func TestDetectorFalsePositiveRate(t *testing.T) {
	// Under the null (no spike) the per-point rejection rate should be
	// near alpha. Aggregate over many trials.
	var ws workspace
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
		fp += len(ws.detect(pre, post).spikes)
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
	// just because of the trend — this is what the trend model is for.
	pre := make([]float64, 12)
	for i := range pre {
		pre[i] = float64(2 + i) // deterministic ramp: 2,3,...,13
	}
	post := []float64{14, 15, 16} // ramp continues, no spike
	for _, s := range detectFresh(pre, post).spikes {
		if s.excess > 5 {
			t.Fatalf("trend misread as spike: %+v", s)
		}
	}
}

// TestDetectorShortWindows drives the detector through the degenerate fit
// windows a faulty round actually produces (lost probes shrink pre below any
// model's minimum) and asserts each case declares itself unusable instead of
// fabricating spikes from a near-empty fit.
func TestDetectorShortWindows(t *testing.T) {
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
			res := detectFresh(tc.pre, tc.post)
			if res.usable != tc.wantUsable {
				t.Fatalf("usable = %v, want %v (fnRate %.3f)", res.usable, tc.wantUsable, res.fnRate)
			}
			if !tc.wantUsable && len(res.spikes) != 0 {
				t.Fatalf("unusable result still reported %d spikes", len(res.spikes))
			}
			if tc.wantUsable && len(res.spikes) != tc.wantSpikes {
				t.Fatalf("got %d spikes, want %d", len(res.spikes), tc.wantSpikes)
			}
		})
	}
}

// TestDetectorShortWindowNoFalseSpikes sweeps every pre length from 0 to 12
// over pure Poisson-ish noise with a noisy post window and checks the
// detector never turns sampling noise into a spike, however short the fit.
func TestDetectorShortWindowNoFalseSpikes(t *testing.T) {
	noise := []float64{3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 1, 4}
	for n := 0; n <= len(noise); n++ {
		if res := detectFresh(noise[:n], []float64{4, 2, 5, 3}); len(res.spikes) != 0 {
			t.Fatalf("pre length %d: spurious spikes %+v", n, res.spikes)
		}
	}
}

// TestDetectReusedWorkspaceMatchesFresh: detection through a workspace
// carried from one call to the next is bit-identical to detection in a fresh
// one — same spikes, same z-scores, same FN rate — over stationary noise,
// ramps (the trend-model path), constant and too-short windows.
func TestDetectReusedWorkspaceMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ws workspace
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
				pre[i] = 5 // constant window: untestable ADF, singular fits
			}
		}
		post := make([]float64, 1+rng.Intn(15))
		for i := range post {
			post[i] = math.Floor(slope*float64(n+i) + lambda + rng.NormFloat64()*math.Sqrt(lambda))
			if rng.Intn(5) == 0 {
				post[i] += 10
			}
		}
		want := detectFresh(pre, post)
		got := ws.detect(pre, post)
		if got.usable != want.usable || math.Float64bits(got.fnRate) != math.Float64bits(want.fnRate) ||
			len(got.spikes) != len(want.spikes) {
			t.Fatalf("trial %d: reused workspace %+v, fresh %+v", trial, got, want)
		}
		for i := range want.spikes {
			g, w := got.spikes[i], want.spikes[i]
			if g.index != w.index || math.Float64bits(g.z) != math.Float64bits(w.z) || math.Float64bits(g.excess) != math.Float64bits(w.excess) {
				t.Fatalf("trial %d spike %d: reused workspace %+v, fresh %+v", trial, i, g, w)
			}
		}
		switch {
		case n < 4:
			paths["short"]++
		case len(want.spikes) > 0:
			paths["spikes"]++
		default:
			paths["quiet"]++
		}
	}
	if paths["short"] == 0 || paths["spikes"] < 100 || paths["quiet"] < 100 {
		t.Fatalf("fixture did not cover the paths: %v", paths)
	}
}
