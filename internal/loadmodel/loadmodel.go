// Package loadmodel generates the arrival processes behind the load
// generator: seeded, deterministic request schedules drawn from a
// Poisson process, a bursty (Markov-modulated) process or a diurnal rate
// curve — and Closed, the closed loop expressed as one more process.
//
// Open-loop means the schedule is fixed before the first request is sent:
// every request has an *intended* start time drawn from the process, and
// the generator dispatches at those times no matter how slowly the server
// answers. Latency is then measured from the intended start, so a stalled
// server accrues the queueing delay it actually caused instead of
// silently pausing the clock — the coordinated-omission correction. A
// closed loop (send, wait, send) measures only the server's good moods.
//
// Determinism is load-bearing: BENCH entries must be byte-identical
// across reruns with the same seed, and a fleet of generator agents must
// be shardable across processes without coordination. Both come from the
// same mechanism — every process is driven by a *rand.Rand built from an
// explicit seed, and per-agent seeds are derived with DeriveSeed's
// splitmix64 mix, so agent i's stream is a pure function of (base seed,
// i) wherever it runs. Nothing in this package reads the wall clock.
package loadmodel

import (
	"math"
	"math/rand"
	"time"
)

// Process is one arrival stream: Next returns the gap to the next
// arrival. Implementations are deterministic in their seed and are not
// safe for concurrent use — one Process per agent.
type Process interface {
	Next() time.Duration
}

// DeriveSeed mixes an agent index into a base seed (splitmix64 finalizer
// over base + i·golden gamma). Distinct agents get statistically
// independent streams; the same (base, agent) pair derives the same seed
// in every process, which is what makes a fleet shardable.
func DeriveSeed(base uint64, agent int) uint64 {
	z := base + uint64(agent+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Offsets materializes a process into absolute intended-start offsets
// (from schedule start) up to and excluding horizon. These are the
// timestamps coordinated-omission-corrected latency is measured from.
func Offsets(p Process, horizon time.Duration) []time.Duration {
	var out []time.Duration
	for t := p.Next(); t < horizon; t += p.Next() {
		out = append(out, t)
	}
	return out
}

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)))
}

// Closed is the closed loop as an arrival process: the next request falls
// due the moment the previous one completes, so the gap is always zero
// and the schedule is anchored to completions instead of the clock. A
// driver tells it from the open processes by type and, for a Closed
// agent only, measures the gap from the previous completion and honours
// the server's backoff hints. Offsets never terminates on it.
type Closed struct{}

func (Closed) Next() time.Duration { return 0 }

// expGap draws one exponential interarrival at the given rate (arrivals
// per second).
func expGap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// Poisson is a homogeneous Poisson process: i.i.d. exponential
// interarrivals with mean 1/rate. The memoryless baseline every open-loop
// benchmark should include.
type Poisson struct {
	rng  *rand.Rand
	rate float64
}

// NewPoisson builds a Poisson process at rate arrivals per second.
func NewPoisson(rate float64, seed uint64) *Poisson {
	return &Poisson{rng: newRand(seed), rate: rate}
}

func (p *Poisson) Next() time.Duration {
	return expGap(p.rng, p.rate)
}

// BurstyConfig shapes a two-state Markov-modulated Poisson process:
// exponentially-distributed residences in a base state and a burst state,
// each emitting Poisson arrivals at its own rate.
type BurstyConfig struct {
	// BaseRate / BurstRate are the arrival rates (per second) in each state.
	BaseRate  float64
	BurstRate float64
	// MeanBase / MeanBurst are the mean residence times in each state.
	MeanBase  time.Duration
	MeanBurst time.Duration
}

// MeanRate is the long-run arrival rate of the process: the
// residence-weighted average of the two state rates.
func (c BurstyConfig) MeanRate() float64 {
	base := c.MeanBase.Seconds()
	burst := c.MeanBurst.Seconds()
	return (c.BaseRate*base + c.BurstRate*burst) / (base + burst)
}

// Bursty is the MMPP: the on/off pattern that defeats admission
// controllers tuned on smooth averages, which is exactly why the SLO
// tests drive the server with it.
type Bursty struct {
	cfg       BurstyConfig
	rng       *rand.Rand
	inBurst   bool
	remaining time.Duration // time left in the current state
}

// NewBursty builds the process; it starts in the base state.
func NewBursty(cfg BurstyConfig, seed uint64) *Bursty {
	b := &Bursty{cfg: cfg, rng: newRand(seed)}
	b.remaining = b.drawResidence()
	return b
}

// StandardBursty is the benchmark shape: 25% duty cycle at 3x the mean
// rate against a base of mean/3, normalized so the long-run rate is
// exactly the requested one, with 400ms/1200ms burst/base residences.
func StandardBursty(rate float64, seed uint64) *Bursty {
	return NewBursty(BurstyConfig{
		BaseRate:  rate / 3,
		BurstRate: 3 * rate,
		MeanBase:  1200 * time.Millisecond,
		MeanBurst: 400 * time.Millisecond,
	}, seed)
}

func (b *Bursty) drawResidence() time.Duration {
	mean := b.cfg.MeanBase
	if b.inBurst {
		mean = b.cfg.MeanBurst
	}
	return time.Duration(b.rng.ExpFloat64() * float64(mean))
}

func (b *Bursty) rate() float64 {
	if b.inBurst {
		return b.cfg.BurstRate
	}
	return b.cfg.BaseRate
}

// Next simulates the MMPP exactly: draw a gap at the current state's
// rate; if it crosses the state boundary, consume the residue, switch
// state and redraw — valid because exponential arrivals are memoryless,
// so conditioning on "no arrival before the switch" leaves a fresh
// exponential at the new rate.
func (b *Bursty) Next() time.Duration {
	var elapsed time.Duration
	for {
		gap := expGap(b.rng, b.rate())
		if gap < b.remaining {
			b.remaining -= gap
			return elapsed + gap
		}
		elapsed += b.remaining
		b.inBurst = !b.inBurst
		b.remaining = b.drawResidence()
	}
}

// DiurnalConfig shapes a sinusoidal rate curve: rate(t) oscillates
// between Trough and Peak with the given Period, starting at the mean and
// rising. The long-run rate is (Trough+Peak)/2.
type DiurnalConfig struct {
	Trough float64 // minimum arrival rate, per second
	Peak   float64 // maximum arrival rate, per second
	Period time.Duration
}

// MeanRate is the long-run arrival rate of the curve.
func (c DiurnalConfig) MeanRate() float64 { return (c.Trough + c.Peak) / 2 }

// Diurnal is an inhomogeneous Poisson process over the sinusoidal curve,
// sampled by Lewis-Shedler thinning: candidate arrivals at the peak rate,
// each kept with probability rate(t)/Peak.
type Diurnal struct {
	cfg DiurnalConfig
	rng *rand.Rand
	t   time.Duration // absolute time of the last emitted arrival
}

// NewDiurnal builds the process.
func NewDiurnal(cfg DiurnalConfig, seed uint64) *Diurnal {
	return &Diurnal{cfg: cfg, rng: newRand(seed)}
}

// StandardDiurnal is the benchmark shape: a curve between rate/2 and
// 3·rate/2 — mean exactly the requested rate — with a 10s period, so a
// short run still sees full peaks and troughs.
func StandardDiurnal(rate float64, seed uint64) *Diurnal {
	return NewDiurnal(DiurnalConfig{
		Trough: rate / 2,
		Peak:   3 * rate / 2,
		Period: 10 * time.Second,
	}, seed)
}

// rateAt evaluates the curve at absolute time t.
func (d *Diurnal) rateAt(t time.Duration) float64 {
	mean := d.cfg.MeanRate()
	amp := (d.cfg.Peak - d.cfg.Trough) / 2
	return mean + amp*math.Sin(2*math.Pi*t.Seconds()/d.cfg.Period.Seconds())
}

func (d *Diurnal) Next() time.Duration {
	prev := d.t
	for {
		d.t += expGap(d.rng, d.cfg.Peak)
		if d.rng.Float64()*d.cfg.Peak <= d.rateAt(d.t) {
			return d.t - prev
		}
	}
}
