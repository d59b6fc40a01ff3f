package online

import (
	"math"
	"math/rand"

	"repro/internal/model"
	"repro/internal/parallel"
)

// ChurnConfig parameterizes the seeded Poisson-churn event stream. The
// stream is a pure function of (scenario, config): the same seed always
// yields the same events, which is what makes service replay tests and
// the benchmark's profit-retention comparison meaningful.
type ChurnConfig struct {
	// Events is the stream length.
	Events int
	// ArriveWeight/DepartWeight/JitterWeight set the per-event kind mix
	// (normalized internally). Arrivals draw from the absent set,
	// departures and jitter from the present set; an empty source set
	// falls back to the others.
	ArriveWeight float64
	DepartWeight float64
	JitterWeight float64
	// FlashAt injects a flash crowd at that event index (<0 disables):
	// FlashSize consecutive arrival events at FlashBoost× the base rate.
	FlashAt    int
	FlashSize  int
	FlashBoost float64
	// Seed drives the whole stream via splitmix64-split sub-streams.
	Seed int64
}

// DefaultChurnConfig returns a balanced churn mix: equal arrivals and
// departures (stationary population) with twice as much rate jitter, and
// no flash crowd.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		Events:       10000,
		ArriveWeight: 1,
		DepartWeight: 1,
		JitterWeight: 2,
		FlashAt:      -1,
		FlashSize:    0,
		FlashBoost:   1.5,
		Seed:         1,
	}
}

// Churn generates the event stream. Not safe for concurrent use — it is
// the single producer feeding Service.Decide.
type Churn struct {
	cfg      ChurnConfig
	rng      *rand.Rand
	nom      []float64 // per-client nominal rate the jitter multiplies
	base     []float64 // per-client current offered rate (last jitter draw)
	present  []model.ClientID
	absent   []model.ClientID
	emitted  int
	flashRem int
}

// NewChurn builds a generator over the scenario's client population.
// Clients with positive rates start present at those rates; zero-rate
// clients start absent. Absent clients' base rates are sampled from the
// present population's empirical range so arrivals look like the
// original workload.
func NewChurn(scen *model.Scenario, cfg ChurnConfig) *Churn {
	n := scen.NumClients()
	c := &Churn{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(parallel.SplitSeed(cfg.Seed, 0xC0FFEE))),
		nom:  make([]float64, n),
		base: make([]float64, n),
	}
	var minRate, maxRate float64 = math.Inf(1), 0
	for i := range scen.Clients {
		if r := scen.Clients[i].PredictedRate; r > 0 {
			c.nom[i] = r
			minRate = math.Min(minRate, r)
			maxRate = math.Max(maxRate, r)
		}
	}
	if math.IsInf(minRate, 1) {
		minRate, maxRate = 0.5, 4.5 // all-absent population: workload defaults
	}
	for i := range scen.Clients {
		id := model.ClientID(i)
		if c.nom[i] > 0 {
			c.base[i] = c.nom[i]
			c.present = append(c.present, id)
		} else {
			c.nom[i] = minRate + c.rng.Float64()*(maxRate-minRate)
			c.absent = append(c.absent, id)
		}
	}
	return c
}

// Rates writes each present client's current offered rate into out
// (len ≥ NumClients; absent clients get 0). The benchmark uses it to
// build the "true final scenario" for the cold re-solve comparison.
func (c *Churn) Rates(out []float64) {
	for i := range out {
		out[i] = 0
	}
	for _, id := range c.present {
		out[id] = c.base[id]
	}
}

// Next returns the next event, or ok=false when the stream is exhausted.
func (c *Churn) Next() (Event, bool) {
	if c.emitted >= c.cfg.Events {
		return Event{}, false
	}
	if c.cfg.FlashAt >= 0 && c.emitted == c.cfg.FlashAt {
		c.flashRem = c.cfg.FlashSize
	}
	c.emitted++

	if c.flashRem > 0 && len(c.absent) > 0 {
		c.flashRem--
		id := c.take(&c.absent)
		c.nom[id] *= math.Max(c.cfg.FlashBoost, 1)
		rate := c.jitter(c.nom[id])
		c.putPresent(id, rate)
		return Event{Kind: EventArrive, Client: id, Rate: rate}, true
	}
	c.flashRem = 0

	wa, wd, wj := c.cfg.ArriveWeight, c.cfg.DepartWeight, c.cfg.JitterWeight
	if len(c.absent) == 0 {
		wa = 0
	}
	if len(c.present) == 0 {
		wd, wj = 0, 0
	}
	total := wa + wd + wj
	if total == 0 {
		// Degenerate config/population: emit an idempotent no-op event.
		return Event{Kind: EventDepart, Client: 0}, true
	}
	u := c.rng.Float64() * total
	switch {
	case u < wa:
		id := c.take(&c.absent)
		rate := c.jitter(c.nom[id])
		c.putPresent(id, rate)
		return Event{Kind: EventArrive, Client: id, Rate: rate}, true
	case u < wa+wd:
		id := c.take(&c.present)
		c.absent = append(c.absent, id)
		return Event{Kind: EventDepart, Client: id}, true
	default:
		id := c.present[c.rng.Intn(len(c.present))]
		rate := c.jitter(c.nom[id])
		c.base[id] = rate
		return Event{Kind: EventRateChange, Client: id, Rate: rate}, true
	}
}

// jitterSigma is the lognormal σ applied to a client's nominal rate on
// arrivals and rate changes. Jitter is mean-reverting: every draw
// multiplies the client's fixed nominal rate, not the previous jittered
// value, so per-client rates fluctuate around the original workload
// instead of following a geometric random walk whose variance explodes
// with stream length.
const jitterSigma = 0.25

// jitter applies a lognormal multiplier with σ = jitterSigma.
func (c *Churn) jitter(base float64) float64 {
	return base * math.Exp(c.rng.NormFloat64()*jitterSigma)
}

// take removes and returns a uniformly random client of set (the
// present or the absent clients).
func (c *Churn) take(set *[]model.ClientID) model.ClientID {
	ids := *set
	idx := c.rng.Intn(len(ids))
	id := ids[idx]
	last := len(ids) - 1
	ids[idx] = ids[last]
	*set = ids[:last]
	return id
}

func (c *Churn) putPresent(id model.ClientID, rate float64) {
	c.base[id] = rate
	c.present = append(c.present, id)
}
