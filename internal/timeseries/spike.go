package timeseries

import (
	"math"

	"github.com/netsec-lab/rovista/internal/stats"
)

func sqrt(v float64) float64 {
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}

func isNaN(v float64) bool { return math.IsNaN(v) }

// Spike describes one detected spike in an observed window.
type Spike struct {
	Index  int     // position within the observation window
	Z      float64 // z-score against the forecast
	Excess float64 // observed − predicted, in packets
}

// SpikeResult is the outcome of running the Appendix-A detector on one
// pre/post observation pair.
type SpikeResult struct {
	Spikes []Spike
	// FNRate is the estimated asymptotic false-negative probability for a
	// spike of ExpectedSpike packets given the fitted noise level.
	FNRate float64
	// Usable reports whether the vVP's background noise admits any inference
	// at all (the paper excludes vVPs whose estimated FP/FN exceeds α).
	Usable bool
}

// Detector runs one-tailed z-score hypothesis tests on observed IP-ID growth
// against a model fitted to pre-measurement background traffic.
type Detector struct {
	// Alpha is the test significance level; the paper uses 0.05.
	Alpha float64
	// ExpectedSpike is the spike magnitude the measurement should induce
	// (the number of spoofed packets, 10 in the paper); used for the
	// false-negative estimate that gates vVP usability.
	ExpectedSpike float64
	// MinExcess discards statistically significant but physically tiny
	// spikes (Poisson shot noise); zero defaults to ExpectedSpike/2.
	MinExcess float64
}

// NewDetector returns a Detector with the paper's defaults (α = 0.05,
// expected spike of 10 packets).
func NewDetector() *Detector {
	return &Detector{Alpha: 0.05, ExpectedSpike: 10}
}

// Workspace is the memory one Detect call works in. A caller that runs many
// detections passes the same Workspace to each DetectIn; it is reset at the
// start of the call, so a SpikeResult's Spikes are valid until the next one.
type Workspace struct {
	floats stats.Scratch
	spikes []Spike
}

// forecast fits the model for spike detection to pre and predicts the next
// h values. Unlike FitAuto (general forecasting), a nonstationary background
// is modelled as a deterministic linear trend with *constant* prediction
// noise: compounding ARIMA forecast variance over the post window would
// swallow the RTO echo spike that distinguishes outbound filtering.
func (d *Detector) forecast(sc *stats.Scratch, pre []float64, h int) (mean, sd []float64) {
	if r := adf(sc, pre, -1); !r.Degenerate && !r.StationaryAt(d.Alpha) {
		// Short windows make ADF unreliable, so additionally require the
		// fitted trend itself to be overwhelmingly significant before
		// extrapolating it: a spurious slope fitted to ~10 Poisson samples
		// inflates the forecast exactly where the RTO echo lands, turning
		// outbound filtering into "no filtering". Genuine ramps (the only
		// nonstationarity the hosts exhibit) clear t > 5 easily.
		if m, ok := fitTrend(sc, pre); ok && m.TStat > 5 {
			return m.forecast(sc, h)
		}
	}
	var best ARMA
	fitted, bestAIC := false, 0.0
	for p := 1; p <= 2; p++ {
		m, err := fitARMA(sc, pre, p, 0)
		if err != nil {
			continue
		}
		if aic := m.AIC(); !fitted || aic < bestAIC {
			best, bestAIC, fitted = m, aic, true
		}
	}
	if !fitted {
		return NewMeanModel(pre).forecast(sc, h)
	}
	return best.forecast(sc, h)
}

// Detect fits a model to the background series pre (IP-ID growth per probe
// interval) and tests each value of post for an upward spike.
func (d *Detector) Detect(pre, post []float64) SpikeResult { return d.DetectIn(nil, pre, post) }

// DetectIn is Detect working in ws (nil: the heap).
func (d *Detector) DetectIn(ws *Workspace, pre, post []float64) SpikeResult {
	if len(post) == 0 {
		return SpikeResult{Usable: false}
	}
	// A fit window shorter than the smallest model needs admits no inference
	// at all: with fewer samples than the ARMA order every fit falls through
	// to the MeanModel, whose NaN-sanitized mean over zero-to-three samples
	// turns ordinary Poisson noise into spurious high-z "spikes" that the
	// caller would then trust (lost probes, by contrast, are caught upstream
	// by the sample-count check). Declare the vVP unusable instead.
	if len(pre) < 4 {
		return SpikeResult{Usable: false, FNRate: 1}
	}
	var sc *stats.Scratch
	var res SpikeResult
	if ws != nil {
		ws.floats.Reset()
		sc, res.Spikes = &ws.floats, ws.spikes[:0]
	}
	mean, sd := d.forecast(sc, pre, len(post))

	// Small-sample corrections: the paper fits on as few as 10 probes, where
	// OLS understates the innovation variance and the normal quantile is too
	// permissive. Use a Student-t-style critical value with the effective
	// degrees of freedom and floor the noise estimate by the (model-free)
	// differenced-series estimate σ̂ ≈ sd(Δpre)/√2.
	z := stats.NormalQuantile(1 - d.Alpha)
	dof := float64(len(pre) - 4)
	if dof < 3 {
		dof = 3
	}
	tAlpha := z + (z*z*z+z)/(4*dof) // Cornish-Fisher expansion of t quantile
	floor := 0.5                    // half a packet per interval at minimum
	if diffs := sc.Diff(pre); len(diffs) >= 2 {
		if f := stats.StdDev(diffs) / math.Sqrt2; f > floor {
			floor = f
		}
	}

	minExcess := d.MinExcess
	if minExcess == 0 {
		minExcess = d.ExpectedSpike / 2
	}
	for k := range post {
		s := sd[k]
		if s < floor {
			s = floor
		}
		z := (post[k] - mean[k]) / s
		if z > tAlpha && post[k]-mean[k] >= minExcess {
			res.Spikes = append(res.Spikes, Spike{Index: k, Z: z, Excess: post[k] - mean[k]})
		}
	}
	if ws != nil {
		ws.spikes = res.Spikes // keep what append grew
	}

	// Appendix A: the asymptotic FN rate for a spike of size s is
	// Φ(t_α − s/σ̂); exclude vVPs for which this exceeds α.
	noise := sd[0]
	if noise < floor {
		noise = floor
	}
	res.FNRate = stats.NormalCDF(tAlpha - d.ExpectedSpike/noise)
	res.Usable = res.FNRate <= d.Alpha
	return res
}

// GrowthSeries converts raw IP-ID samples (with 16-bit wraparound) into the
// per-interval growth series the detector consumes.
func GrowthSeries(ids []uint16) []float64 {
	if len(ids) < 2 {
		return nil
	}
	return AppendGrowth(make([]float64, 0, len(ids)-1), ids)
}

// AppendGrowth appends the growth series of ids to dst.
func AppendGrowth(dst []float64, ids []uint16) []float64 {
	for i := 1; i < len(ids); i++ {
		dst = append(dst, float64(IPIDDelta(ids[i-1], ids[i])))
	}
	return dst
}

// IPIDDelta returns the forward distance from a to b on the 16-bit IP-ID
// ring, correctly handling wraparound (e.g. 0xFFFE → 0x0003 is 5).
func IPIDDelta(a, b uint16) uint16 { return b - a }
