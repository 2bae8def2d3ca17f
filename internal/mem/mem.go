// Package mem models the off-chip memory subsystem: a fixed service latency
// plus a queueing delay that grows with bandwidth utilization, and per-core
// accounting of demand vs. prefetch traffic.
//
// This is the substrate on which the paper's bandwidth-contention effects
// play out (Fig. 1, Fig. 14): when prefetch-aggressive cores saturate the
// channel, every core's effective memory latency rises.
package mem

import "fmt"

// RequestKind distinguishes demand from prefetch traffic; the paper's
// Fig. 1 bars are exactly this split.
type RequestKind uint8

const (
	// Demand is a request triggered by an executing instruction.
	Demand RequestKind = iota
	// Prefetch is a request issued by a hardware prefetcher.
	Prefetch
	// Writeback is a dirty line leaving the LLC for memory.
	Writeback
	numKinds
)

// String implements fmt.Stringer.
func (k RequestKind) String() string {
	switch k {
	case Demand:
		return "demand"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("RequestKind(%d)", uint8(k))
	}
}

// Config parameterizes the memory model. The defaults mirror the paper's
// platform: DDR4-2400 behind an E5-2620 v4 at 2.1 GHz with a 68.3 GB/s
// ceiling.
type Config struct {
	// BaseLatency is the unloaded access latency in core cycles.
	BaseLatency int
	// PeakBytesPerCycle is the channel ceiling. 68.3 GB/s at 2.1 GHz is
	// ~32.5 bytes per core cycle.
	PeakBytesPerCycle float64
	// QueueScale multiplies the congestion term; larger values make the
	// channel degrade more sharply as it saturates.
	QueueScale float64
	// MaxUtilization caps the utilization used in the queueing formula so
	// the delay stays finite (the real controller backpressures).
	MaxUtilization float64
	// LineBytes is the transfer size per request.
	LineBytes int
}

// DefaultConfig returns the paper-platform configuration.
func DefaultConfig() Config {
	return Config{
		BaseLatency:       180,
		PeakBytesPerCycle: 32.5,
		QueueScale:        35,
		MaxUtilization:    0.95,
		LineBytes:         64,
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.BaseLatency <= 0:
		return fmt.Errorf("mem: BaseLatency %d must be positive", c.BaseLatency)
	case c.PeakBytesPerCycle <= 0:
		return fmt.Errorf("mem: PeakBytesPerCycle %g must be positive", c.PeakBytesPerCycle)
	case c.LineBytes <= 0:
		return fmt.Errorf("mem: LineBytes %d must be positive", c.LineBytes)
	case c.MaxUtilization <= 0 || c.MaxUtilization >= 1:
		return fmt.Errorf("mem: MaxUtilization %g must be in (0,1)", c.MaxUtilization)
	case c.QueueScale < 0:
		return fmt.Errorf("mem: QueueScale %g must be non-negative", c.QueueScale)
	}
	return nil
}

// Controller is the shared memory controller. It is not safe for concurrent
// use; the simulator advances cores under one goroutine (see sim.System).
type Controller struct {
	cfg Config

	// Current window accounting (bytes enqueued since last Tick).
	windowBytes float64

	// Latency currently charged per access; refreshed by Tick from the
	// previous window's utilization.
	loadedLatency int
	utilization   float64

	// Cumulative per-core, per-kind byte counters.
	bytes [][numKinds]uint64

	// throttle is the per-core MBA delay fraction: each request from a
	// throttled core is delayed by throttle*BaseLatency extra cycles
	// (request-rate limiting at the core's memory interface).
	throttle []float64

	// share is the fraction of PeakBytesPerCycle reserved for each core.
	// A core with share 0 draws from the shared pool exactly as before;
	// a core with share s > 0 is served by its own slice of the channel:
	// its traffic leaves the pool accounting and its queueing delay is
	// computed from its private utilization, so a saturating pool cannot
	// starve it and it cannot inflate the pool's latency.
	share []float64
	// shareTotal is the sum of all reserved fractions; the shared pool's
	// ceiling shrinks by this amount (reserved bandwidth is not free).
	shareTotal float64
	// shareWindowBytes accumulates a partitioned core's bytes per window.
	shareWindowBytes []float64
	// shareLatency is the per-access latency charged to each partitioned
	// core, refreshed by Tick from its private utilization.
	shareLatency []int
}

// NewController builds a controller for n cores. It panics on invalid
// configuration (construction is programmer-controlled).
func NewController(n int, cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if n <= 0 {
		panic(fmt.Sprintf("mem: n=%d cores", n))
	}
	m := &Controller{
		cfg:              cfg,
		loadedLatency:    cfg.BaseLatency,
		bytes:            make([][numKinds]uint64, n),
		throttle:         make([]float64, n),
		share:            make([]float64, n),
		shareWindowBytes: make([]float64, n),
		shareLatency:     make([]int, n),
	}
	for i := range m.shareLatency {
		m.shareLatency[i] = cfg.BaseLatency
	}
	return m
}

// CopyFrom makes m an exact copy of src: window accounting, loaded
// latencies, byte counters, MBA throttles and bandwidth shares. Both
// controllers must serve the same number of cores; it panics otherwise.
func (m *Controller) CopyFrom(src *Controller) {
	if len(m.bytes) != len(src.bytes) {
		panic("mem: CopyFrom across core counts")
	}
	bytes, throttle, share, swb, sl := m.bytes, m.throttle, m.share, m.shareWindowBytes, m.shareLatency
	*m = *src
	m.bytes, m.throttle, m.share, m.shareWindowBytes, m.shareLatency = bytes, throttle, share, swb, sl
	copy(m.bytes, src.bytes)
	copy(m.throttle, src.throttle)
	copy(m.share, src.share)
	copy(m.shareWindowBytes, src.shareWindowBytes)
	copy(m.shareLatency, src.shareLatency)
}

// Config returns the controller's configuration.
func (m *Controller) Config() Config { return m.cfg }

// Access records one line transfer for core and returns the latency, in
// cycles, the requester observes under the current load and the core's
// MBA throttle.
func (m *Controller) Access(core int, kind RequestKind) int {
	if m.share[core] > 0 {
		m.shareWindowBytes[core] += float64(m.cfg.LineBytes)
		m.bytes[core][kind] += uint64(m.cfg.LineBytes)
		return m.shareLatency[core] + int(m.throttle[core]*float64(m.cfg.BaseLatency))
	}
	m.windowBytes += float64(m.cfg.LineBytes)
	m.bytes[core][kind] += uint64(m.cfg.LineBytes)
	return m.loadedLatency + int(m.throttle[core]*float64(m.cfg.BaseLatency))
}

// SetThrottle programs core's MBA delay fraction in [0,1); out-of-range
// values are clamped.
func (m *Controller) SetThrottle(core int, frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 0.9 {
		frac = 0.9
	}
	m.throttle[core] = frac
}

// Throttle reports core's MBA delay fraction.
func (m *Controller) Throttle(core int) float64 { return m.throttle[core] }

// SetShare reserves frac of the channel for core. frac must be in [0,1)
// and the reserved fractions across all cores must not exceed the whole
// channel; a violating call is rejected without changing any share.
// SetShare(core, 0) returns the core to the shared pool.
func (m *Controller) SetShare(core int, frac float64) error {
	if core < 0 || core >= len(m.share) {
		return fmt.Errorf("mem: SetShare core %d out of range [0,%d)", core, len(m.share))
	}
	if frac < 0 || frac >= 1 {
		return fmt.Errorf("mem: SetShare fraction %g must be in [0,1)", frac)
	}
	total := frac
	for i, s := range m.share {
		if i != core {
			total += s
		}
	}
	if total > 1 {
		return fmt.Errorf("mem: SetShare core %d to %g would reserve %g of the channel (max 1)", core, frac, total)
	}
	if m.share[core] == 0 && frac > 0 {
		// Entering a fresh partition: start from the unloaded latency and
		// an empty window rather than inheriting a stale measurement.
		m.shareLatency[core] = m.cfg.BaseLatency
		m.shareWindowBytes[core] = 0
	}
	m.share[core] = frac
	m.shareTotal = total
	return nil
}

// Share reports the channel fraction reserved for core (0 = shared pool).
func (m *Controller) Share(core int) float64 { return m.share[core] }

// ShareTotal reports the sum of all reserved fractions.
func (m *Controller) ShareTotal() float64 { return m.shareTotal }

// Tick closes the current accounting window of the given length in cycles
// and recomputes the loaded latency applied to the next window. The
// simulator calls it once per round.
func (m *Controller) Tick(windowCycles int) {
	if windowCycles <= 0 {
		return
	}
	// Reserved fractions are carved out of the channel, so the shared
	// pool's ceiling shrinks by the reserved total.
	poolPeak := m.cfg.PeakBytesPerCycle * (1 - m.shareTotal)
	var util float64
	switch {
	case poolPeak > 0:
		util = m.windowBytes / (poolPeak * float64(windowCycles))
	case m.windowBytes > 0:
		util = m.cfg.MaxUtilization
	}
	if util > m.cfg.MaxUtilization {
		util = m.cfg.MaxUtilization
	}
	m.utilization = util
	// M/M/1-flavoured delay: negligible when idle, steep near saturation.
	delay := m.cfg.QueueScale * util * util / (1 - util)
	m.loadedLatency = m.cfg.BaseLatency + int(delay)
	m.windowBytes = 0
	if m.shareTotal == 0 {
		return
	}
	for i, s := range m.share {
		if s <= 0 {
			continue
		}
		u := m.shareWindowBytes[i] / (s * m.cfg.PeakBytesPerCycle * float64(windowCycles))
		if u > m.cfg.MaxUtilization {
			u = m.cfg.MaxUtilization
		}
		d := m.cfg.QueueScale * u * u / (1 - u)
		m.shareLatency[i] = m.cfg.BaseLatency + int(d)
		m.shareWindowBytes[i] = 0
	}
}

// Utilization returns the utilization measured over the last closed window,
// in [0, MaxUtilization].
func (m *Controller) Utilization() float64 { return m.utilization }

// LoadedLatency returns the per-access latency currently being charged.
func (m *Controller) LoadedLatency() int { return m.loadedLatency }

// Bytes returns cumulative bytes transferred for core with the given kind.
func (m *Controller) Bytes(core int, kind RequestKind) uint64 {
	return m.bytes[core][kind]
}

// TotalBytes returns cumulative bytes for core across all kinds.
func (m *Controller) TotalBytes(core int) uint64 {
	return m.bytes[core][Demand] + m.bytes[core][Prefetch] + m.bytes[core][Writeback]
}

// ResetStats zeroes the cumulative byte counters (latency state is kept).
func (m *Controller) ResetStats() {
	for i := range m.bytes {
		m.bytes[i] = [numKinds]uint64{}
	}
}

// BandwidthGBs converts a byte count over a cycle count into GB/s given the
// core clock in GHz. Returns 0 for non-positive cycles.
func BandwidthGBs(bytes uint64, cycles uint64, ghz float64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes) / float64(cycles) * ghz
}
