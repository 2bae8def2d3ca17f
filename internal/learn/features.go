// Package learn is the framework's offline-training / online-inference
// subsystem: it turns the per-epoch decision events the controller already
// emits (internal/telemetry JSONL) into labeled training examples, fits
// a small pure-Go model (a CART decision tree), and serializes it as
// versioned JSON for the CMM-L policy (internal/cmm) to load and predict
// throttle decisions with — replacing the controller's exhaustive combo
// sampling at near-zero decision cost.
//
// The pipeline mirrors the lightweight ML-based prefetcher-selection line
// of work (arXiv 2307.08635, 2509.10719): features are the Table-I PMU
// metrics of one all-prefetchers-on probe interval, labels are the
// sampled-and-scored throttle decisions the classic policies already
// compute, and the corpus is whatever telemetry the experiment engine (or
// a production cmmserve fleet) has streamed to disk.
package learn

import "math"

// SchemaVersion versions the feature schema: the set, order, and transform
// of the per-core features below. A model trained under one version must
// never be asked to predict under another — Model.Validate enforces it —
// so bump this whenever FeatureNames or Vector changes shape or meaning.
const SchemaVersion = 1

// FeatureNames lists the per-core features in vector order. The "log_"
// prefix marks rate features stored as log10(1+x): raw per-second rates
// span 0..1e9 and would otherwise dominate every distance and gradient.
var FeatureNames = []string{
	"pga",             // M-4 prefetch generation ability (pref req / dm req)
	"l2_pmr",          // M-5 L2 prefetch miss rate (pref miss / pref req)
	"log_l2_ptr",      // M-3 L2 prefetch traffic rate, log10(1+req/s)
	"log_llc_pt",      // M-7 as a rate: LLC→memory prefetch misses/s, log10(1+x)
	"ipc",             // instructions per cycle over the probe interval
	"mpki",            // LLC demand load misses per kilo-instruction
	"stall_ratio",     // STALLS_L2_PENDING / cycles
	"log_mem_traffic", // total LLC→memory request rate, log10(1+req/s)
}

// NumFeatures is the length of every feature vector under SchemaVersion.
var NumFeatures = len(FeatureNames)

// Vector builds one core's feature vector from the raw per-core metrics of
// a detection probe (cmm.Detection holds exactly these, in these units).
// It is the single source of truth for feature order and transform: the
// dataset extractor and the CMM-L policy's predict path both call it, so
// training and inference can never skew. Non-finite inputs (a zero-cycle
// window, a poisoned counter) are clamped to 0 — adversarial telemetry
// must degrade a prediction, never NaN-poison the model.
func Vector(pga, pmr, ptr, llcPT, ipc, mpki, stallRatio, memTraffic float64) []float64 {
	return []float64{
		sanitize(pga),
		sanitize(pmr),
		logRate(ptr),
		logRate(llcPT),
		sanitize(ipc),
		sanitize(mpki),
		sanitize(stallRatio),
		logRate(memTraffic),
	}
}

// sanitize maps NaN/±Inf to 0 so downstream arithmetic stays finite.
func sanitize(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// logRate compresses a non-negative per-second rate to log10(1+x).
func logRate(x float64) float64 {
	x = sanitize(x)
	if x < 0 {
		x = 0
	}
	return math.Log10(1 + x)
}
