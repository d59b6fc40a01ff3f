// Package workload generates random problem instances with the parameter
// distributions of the paper's experimental section (Section VI): 5
// clusters, 10 server classes, 5 utility classes, execution times and
// utility slopes ~ U(0.4,1), arrival rates ~ U(0.5,4.5), capacities and
// fixed costs ~ U(2,6), utilization costs ~ U(1,3), disk needs ~ U(0.2,2).
//
// Everything is driven by an explicit seed so scenarios are reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Range is a closed interval for a uniform draw.
type Range struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// draw samples uniformly from the range.
func (r Range) draw(rng *rand.Rand) float64 {
	return r.Min + rng.Float64()*(r.Max-r.Min)
}

func (r Range) valid() bool { return r.Max >= r.Min }

// Config controls scenario generation. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	NumClusters       int `json:"numClusters"`
	NumServerClasses  int `json:"numServerClasses"`
	NumUtilityClasses int `json:"numUtilityClasses"`
	NumClients        int `json:"numClients"`

	// MinServersPerCluster and MaxServersPerCluster bound the uniform
	// integer draw of each cluster's size. The paper does not state the
	// cluster sizes; the defaults give the 5-cluster cloud enough servers
	// that 200 clients neither trivially fit nor overload it.
	MinServersPerCluster int `json:"minServersPerCluster"`
	MaxServersPerCluster int `json:"maxServersPerCluster"`

	// PredictionFactor scales the predicted arrival rate relative to the
	// agreed contract rate (λ̃ = factor × λ). 1 means the allocator trusts
	// the contract exactly.
	PredictionFactor float64 `json:"predictionFactor"`

	Seed int64 `json:"seed"`

	ExecTime  Range `json:"execTime"`  // tp, tb per client
	Arrival   Range `json:"arrival"`   // λ per client
	DiskNeed  Range `json:"diskNeed"`  // m per client
	Capacity  Range `json:"capacity"`  // Cp, Cm, Cb per server class
	FixedCost Range `json:"fixedCost"` // P0 per server class
	UtilCost  Range `json:"utilCost"`  // P1 per server class
	Slope     Range `json:"slope"`     // b per utility class
	Base      Range `json:"base"`      // a per utility class
}

// DefaultConfig returns the paper's experimental parameters with the
// documented substitutions for the unspecified constants (see DESIGN.md §1.1).
func DefaultConfig() Config {
	return Config{
		NumClusters:          5,
		NumServerClasses:     10,
		NumUtilityClasses:    5,
		NumClients:           50,
		MinServersPerCluster: 20,
		MaxServersPerCluster: 30,
		PredictionFactor:     1,
		Seed:                 1,
		ExecTime:             Range{Min: 0.4, Max: 1},
		Arrival:              Range{Min: 0.5, Max: 4.5},
		DiskNeed:             Range{Min: 0.2, Max: 2},
		Capacity:             Range{Min: 2, Max: 6},
		FixedCost:            Range{Min: 2, Max: 6},
		UtilCost:             Range{Min: 1, Max: 3},
		Slope:                Range{Min: 0.4, Max: 1},
		Base:                 Range{Min: 3, Max: 6},
	}
}

// Validate checks that the configuration can produce a valid scenario.
func (c Config) Validate() error {
	switch {
	case c.NumClusters <= 0:
		return fmt.Errorf("workload: NumClusters = %d", c.NumClusters)
	case c.NumServerClasses <= 0:
		return fmt.Errorf("workload: NumServerClasses = %d", c.NumServerClasses)
	case c.NumUtilityClasses <= 0:
		return fmt.Errorf("workload: NumUtilityClasses = %d", c.NumUtilityClasses)
	case c.NumClients <= 0:
		return fmt.Errorf("workload: NumClients = %d", c.NumClients)
	case c.MinServersPerCluster <= 0 || c.MaxServersPerCluster < c.MinServersPerCluster:
		return fmt.Errorf("workload: servers per cluster range [%d,%d]",
			c.MinServersPerCluster, c.MaxServersPerCluster)
	case !(c.PredictionFactor > 0 && c.PredictionFactor <= 1):
		return fmt.Errorf("workload: PredictionFactor = %v", c.PredictionFactor)
	}
	for _, r := range []struct {
		name string
		r    Range
	}{
		{"ExecTime", c.ExecTime}, {"Arrival", c.Arrival}, {"DiskNeed", c.DiskNeed},
		{"Capacity", c.Capacity}, {"FixedCost", c.FixedCost}, {"UtilCost", c.UtilCost},
		{"Slope", c.Slope}, {"Base", c.Base},
	} {
		if !r.r.valid() || r.r.Min < 0 {
			return fmt.Errorf("workload: invalid %s range %+v", r.name, r.r)
		}
	}
	if c.ExecTime.Min <= 0 || c.Arrival.Min <= 0 {
		return fmt.Errorf("workload: ExecTime and Arrival must be strictly positive")
	}
	return nil
}

// Generate builds a random scenario from the configuration.
func Generate(cfg Config) (*model.Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	classes := make([]model.ServerClass, cfg.NumServerClasses)
	for s := range classes {
		classes[s] = model.ServerClass{
			ID:              model.ServerClassID(s),
			ProcCap:         cfg.Capacity.draw(rng),
			StoreCap:        cfg.Capacity.draw(rng),
			CommCap:         cfg.Capacity.draw(rng),
			FixedCost:       cfg.FixedCost.draw(rng),
			UtilizationCost: cfg.UtilCost.draw(rng),
		}
	}
	utilities := make([]model.UtilityClass, cfg.NumUtilityClasses)
	for u := range utilities {
		utilities[u] = model.UtilityClass{
			ID:    model.UtilityClassID(u),
			Base:  cfg.Base.draw(rng),
			Slope: cfg.Slope.draw(rng),
		}
	}

	clusters := make([]model.Cluster, cfg.NumClusters)
	var servers []model.Server
	for k := range clusters {
		n := cfg.MinServersPerCluster
		if span := cfg.MaxServersPerCluster - cfg.MinServersPerCluster; span > 0 {
			n += rng.Intn(span + 1)
		}
		ids := make([]model.ServerID, n)
		for i := 0; i < n; i++ {
			id := model.ServerID(len(servers))
			servers = append(servers, model.Server{
				ID:      id,
				Class:   model.ServerClassID(rng.Intn(cfg.NumServerClasses)),
				Cluster: model.ClusterID(k),
			})
			ids[i] = id
		}
		clusters[k] = model.Cluster{ID: model.ClusterID(k), Servers: ids}
	}

	clients := make([]model.Client, cfg.NumClients)
	for i := range clients {
		arrival := cfg.Arrival.draw(rng)
		clients[i] = model.Client{
			ID:            model.ClientID(i),
			Class:         model.UtilityClassID(rng.Intn(cfg.NumUtilityClasses)),
			ArrivalRate:   arrival,
			PredictedRate: arrival * cfg.PredictionFactor,
			ProcTime:      cfg.ExecTime.draw(rng),
			CommTime:      cfg.ExecTime.draw(rng),
			DiskNeed:      cfg.DiskNeed.draw(rng),
		}
	}

	scen := &model.Scenario{
		Cloud: model.Cloud{
			ServerClasses:  classes,
			UtilityClasses: utilities,
			Clusters:       clusters,
			Servers:        servers,
		},
		Clients: clients,
	}
	if err := scen.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid scenario: %w", err)
	}
	return scen, nil
}
