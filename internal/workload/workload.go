// Package workload generates the synthetic IoT demand that drives both the
// assignment problem (per-device load) and the cluster simulator
// (per-request arrival streams). Since the paper's traces are unavailable,
// these generators reproduce the properties that matter for the algorithms:
// heterogeneous per-device rates with Zipf skew, bursty arrivals, variable
// payloads and per-class deadlines.
package workload

import (
	"fmt"

	"taccc/internal/xrand"
)

// Device describes one IoT device's demand profile.
type Device struct {
	// ID indexes the device; it matches the row of the delay matrix.
	ID int
	// RateHz is the mean request rate.
	RateHz float64
	// PayloadKB is the mean uplink payload per request.
	PayloadKB float64
	// ComputeUnits is the processing cost of one request on an edge
	// server, in abstract capacity units.
	ComputeUnits float64
	// DeadlineMs is the end-to-end latency deadline of this device's
	// requests; 0 means best-effort.
	DeadlineMs float64
	// Bursty selects the MMPP arrival process instead of Poisson.
	Bursty bool
}

// Load returns the steady-state capacity demand of the device: rate times
// per-request compute.
func (d Device) Load() float64 { return d.RateHz * d.ComputeUnits }

// Class is a device archetype used by Profile to mix heterogeneous
// populations (e.g. cameras vs. scalar sensors).
type Class struct {
	// Name labels the class in reports.
	Name string
	// Weight is the relative share of devices drawn from this class.
	Weight float64
	// RateHz and RateJitter bound the per-device mean rate:
	// rate ~ Uniform(RateHz*(1-RateJitter), RateHz*(1+RateJitter)).
	RateHz     float64
	RateJitter float64
	// PayloadKB is the mean payload; per-device payloads are lognormal
	// around it with the given sigma.
	PayloadKB    float64
	PayloadSigma float64
	// ComputeUnits is the per-request processing cost.
	ComputeUnits float64
	// DeadlineMs is the class deadline (0 = best-effort).
	DeadlineMs float64
	// BurstProb is the probability a device of this class is bursty.
	BurstProb float64
}

// Profile configures a device population.
type Profile struct {
	// Classes to mix; must be non-empty with positive total weight.
	Classes []Class
	// ZipfSkew, when > 0, multiplies device rates by a Zipf-distributed
	// popularity factor so a few devices dominate demand. 0 disables.
	ZipfSkew float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultProfile models a mixed sensing deployment: many low-rate scalar
// sensors, some medium-rate trackers, a few heavy camera streams. Loads
// span ~30x between classes, but the heaviest single device stays well
// below one edge server's capacity so the tightness knob rho remains
// meaningful; use a custom Profile with ZipfSkew for hotter tails.
func DefaultProfile(seed int64) Profile {
	return Profile{
		Classes: []Class{
			{Name: "sensor", Weight: 0.7, RateHz: 1, RateJitter: 0.5, PayloadKB: 1, PayloadSigma: 0.3, ComputeUnits: 0.2, DeadlineMs: 150},
			{Name: "tracker", Weight: 0.2, RateHz: 5, RateJitter: 0.4, PayloadKB: 4, PayloadSigma: 0.4, ComputeUnits: 0.5, DeadlineMs: 80, BurstProb: 0.3},
			{Name: "camera", Weight: 0.1, RateHz: 10, RateJitter: 0.3, PayloadKB: 40, PayloadSigma: 0.5, ComputeUnits: 0.5, DeadlineMs: 250, BurstProb: 0.5},
		},
		Seed: seed,
	}
}

// Generate draws n devices from the profile. The same profile (including
// seed) always produces the same population.
func Generate(n int, p Profile) ([]Device, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: Generate needs n > 0, got %d", n)
	}
	if len(p.Classes) == 0 {
		return nil, fmt.Errorf("workload: profile has no classes")
	}
	weights := make([]float64, len(p.Classes))
	total := 0.0
	for i, c := range p.Classes {
		if c.Weight < 0 {
			return nil, fmt.Errorf("workload: class %q has negative weight", c.Name)
		}
		if c.RateHz <= 0 || c.ComputeUnits <= 0 {
			return nil, fmt.Errorf("workload: class %q needs positive rate and compute", c.Name)
		}
		weights[i] = c.Weight
		total += c.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("workload: profile weights sum to %v", total)
	}
	src := xrand.NewSplit(p.Seed, "workload")
	var zipf *xrand.Zipf
	var popPerm []int
	if p.ZipfSkew > 0 {
		// Every pinned device population counts on one parent draw
		// here; dropping it would shift every later draw.
		src.Int63()
		zipf = xrand.NewZipf(n, p.ZipfSkew)
		popPerm = src.Split("perm").Perm(n)
	}
	devices := make([]Device, n)
	for i := range devices {
		c := p.Classes[src.Choice(weights)]
		jitter := src.Uniform(1-c.RateJitter, 1+c.RateJitter)
		rate := c.RateHz * jitter
		if zipf != nil {
			// Popularity factor: n * P(rank) keeps the population
			// mean rate roughly unchanged while skewing devices.
			factor := float64(n) * zipf.Prob(popPerm[i])
			rate *= 0.5 + 0.5*factor // blend to avoid zero-rate tails
		}
		payload := c.PayloadKB
		if c.PayloadSigma > 0 {
			payload = c.PayloadKB * src.LogNormal(0, c.PayloadSigma)
		}
		devices[i] = Device{
			ID:           i,
			RateHz:       rate,
			PayloadKB:    payload,
			ComputeUnits: c.ComputeUnits,
			DeadlineMs:   c.DeadlineMs,
			Bursty:       src.Bernoulli(c.BurstProb),
		}
	}
	return devices, nil
}

// TotalLoad sums the steady-state load of a population.
func TotalLoad(devices []Device) float64 {
	total := 0.0
	for _, d := range devices {
		total += d.Load()
	}
	return total
}

// Arrivals produces a stream of inter-arrival gaps (milliseconds).
type Arrivals interface {
	// NextGapMs returns the time to the next request.
	NextGapMs() float64
}

// Poisson is a memoryless arrival process at the given rate.
type Poisson struct {
	rateHz float64
	src    *xrand.Source
}

// NewPoisson returns a Poisson arrival stream; rateHz must be positive.
func NewPoisson(rateHz float64, src *xrand.Source) (*Poisson, error) {
	if rateHz <= 0 {
		return nil, fmt.Errorf("workload: Poisson rate must be positive, got %v", rateHz)
	}
	return &Poisson{rateHz: rateHz, src: src}, nil
}

// NextGapMs returns an exponential gap with mean 1000/rate.
func (p *Poisson) NextGapMs() float64 {
	return p.src.Exponential(p.rateHz) * 1000
}

// MMPP is a two-state Markov-modulated Poisson process: the stream
// alternates between a quiet state and a burst state with a higher rate.
// The overall mean rate matches the configured rate.
type MMPP struct {
	quietRateHz float64
	burstRateHz float64
	// meanQuietMs / meanBurstMs are the mean sojourn times.
	meanQuietMs float64
	meanBurstMs float64

	inBurst     bool
	stateLeftMs float64
	src         *xrand.Source
}

// NewMMPP builds a bursty stream with overall mean rateHz. burstFactor > 1
// scales the burst-state rate; duty in (0,1) is the fraction of time spent
// bursting; cycleMs is the mean burst+quiet cycle length.
func NewMMPP(rateHz, burstFactor, duty, cycleMs float64, src *xrand.Source) (*MMPP, error) {
	if rateHz <= 0 || burstFactor <= 1 || duty <= 0 || duty >= 1 || cycleMs <= 0 {
		return nil, fmt.Errorf("workload: invalid MMPP params rate=%v factor=%v duty=%v cycle=%v",
			rateHz, burstFactor, duty, cycleMs)
	}
	burst := rateHz * burstFactor
	// Solve quiet rate so the time-weighted mean equals rateHz:
	// duty*burst + (1-duty)*quiet = rate.
	quiet := (rateHz - duty*burst) / (1 - duty)
	if quiet < 0 {
		quiet = rateHz / (burstFactor * 10) // heavy burst: nearly silent quiet state
	}
	if quiet <= 0 {
		quiet = 1e-6
	}
	m := &MMPP{
		quietRateHz: quiet,
		burstRateHz: burst,
		meanQuietMs: cycleMs * (1 - duty),
		meanBurstMs: cycleMs * duty,
		src:         src,
	}
	m.stateLeftMs = src.Exponential(1 / m.meanQuietMs) // start quiet
	return m, nil
}

// NextGapMs returns the gap to the next arrival, advancing the modulating
// state as virtual time passes.
func (m *MMPP) NextGapMs() float64 {
	elapsed := 0.0
	for {
		rate := m.quietRateHz
		if m.inBurst {
			rate = m.burstRateHz
		}
		gap := m.src.Exponential(rate) * 1000
		if gap <= m.stateLeftMs {
			m.stateLeftMs -= gap
			return elapsed + gap
		}
		// State flips before the arrival: consume the remaining
		// sojourn and resample in the new state.
		elapsed += m.stateLeftMs
		m.inBurst = !m.inBurst
		mean := m.meanQuietMs
		if m.inBurst {
			mean = m.meanBurstMs
		}
		m.stateLeftMs = m.src.Exponential(1 / mean)
	}
}

// NewArrivals returns the arrival process matching the device profile:
// MMPP for bursty devices, Poisson otherwise.
func NewArrivals(d Device, src *xrand.Source) (Arrivals, error) {
	if d.Bursty {
		return NewMMPP(d.RateHz, 5, 0.2, 10_000, src)
	}
	return NewPoisson(d.RateHz, src)
}
