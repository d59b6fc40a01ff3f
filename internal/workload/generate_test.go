package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumClusters != 5 || cfg.NumServerClasses != 10 || cfg.NumUtilityClasses != 5 {
		t.Fatalf("paper constants wrong: %+v", cfg)
	}
	if cfg.ExecTime != (Range{Min: 0.4, Max: 1}) {
		t.Fatalf("ExecTime = %+v", cfg.ExecTime)
	}
	if cfg.Arrival != (Range{Min: 0.5, Max: 4.5}) {
		t.Fatalf("Arrival = %+v", cfg.Arrival)
	}
	if cfg.Capacity != (Range{Min: 2, Max: 6}) || cfg.FixedCost != (Range{Min: 2, Max: 6}) {
		t.Fatalf("capacity/cost ranges wrong: %+v", cfg)
	}
	if cfg.UtilCost != (Range{Min: 1, Max: 3}) || cfg.DiskNeed != (Range{Min: 0.2, Max: 2}) {
		t.Fatalf("utilcost/disk ranges wrong: %+v", cfg)
	}
	if cfg.Slope != (Range{Min: 0.4, Max: 1}) {
		t.Fatalf("Slope = %+v", cfg.Slope)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestGenerateValidScenario(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumClients = 30
	scen, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := scen.Validate(); err != nil {
		t.Fatal(err)
	}
	if scen.NumClients() != 30 {
		t.Fatalf("clients = %d", scen.NumClients())
	}
	if scen.Cloud.NumClusters() != 5 {
		t.Fatalf("clusters = %d", scen.Cloud.NumClusters())
	}
	for _, cl := range scen.Clients {
		if cl.ArrivalRate < 0.5 || cl.ArrivalRate > 4.5 {
			t.Fatalf("arrival rate %v outside paper range", cl.ArrivalRate)
		}
		if cl.ProcTime < 0.4 || cl.ProcTime > 1 || cl.CommTime < 0.4 || cl.CommTime > 1 {
			t.Fatalf("exec time outside paper range: %+v", cl)
		}
		if cl.DiskNeed < 0.2 || cl.DiskNeed > 2 {
			t.Fatalf("disk need %v outside paper range", cl.DiskNeed)
		}
		if cl.PredictedRate != cl.ArrivalRate {
			t.Fatalf("default prediction factor must be 1: %+v", cl)
		}
	}
	for _, sc := range scen.Cloud.ServerClasses {
		if sc.ProcCap < 2 || sc.ProcCap > 6 || sc.FixedCost < 2 || sc.FixedCost > 6 {
			t.Fatalf("server class outside paper ranges: %+v", sc)
		}
		if sc.UtilizationCost < 1 || sc.UtilizationCost > 3 {
			t.Fatalf("P1 outside paper range: %+v", sc)
		}
	}
	for k := 0; k < scen.Cloud.NumClusters(); k++ {
		n := len(scen.Cloud.Clusters[k].Servers)
		if n < cfg.MinServersPerCluster || n > cfg.MaxServersPerCluster {
			t.Fatalf("cluster %d has %d servers, want [%d,%d]", k, n,
				cfg.MinServersPerCluster, cfg.MaxServersPerCluster)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumClients = 10
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different scenarios")
	}
	cfg.Seed = 2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scenarios")
	}
}

func TestPredictionFactor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumClients = 5
	cfg.PredictionFactor = 0.8
	scen, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range scen.Clients {
		want := cl.ArrivalRate * 0.8
		if diff := cl.PredictedRate - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("predicted %v, want %v", cl.PredictedRate, want)
		}
	}
}

// TestConfigValidateRejectsNaN: NaN fails every comparison, so a sign or
// range check written as "reject if out of range" lets it through.
func TestConfigValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, tt := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"prediction factor", func(c *Config) { c.PredictionFactor = nan }},
		{"arrival range min", func(c *Config) { c.Arrival.Min = nan }},
		{"disk range max", func(c *Config) { c.DiskNeed.Max = nan }},
	} {
		cfg := DefaultConfig()
		tt.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s NaN accepted", tt.name)
		}
	}
}

func TestConfigValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero clusters", func(c *Config) { c.NumClusters = 0 }},
		{"zero server classes", func(c *Config) { c.NumServerClasses = 0 }},
		{"zero utility classes", func(c *Config) { c.NumUtilityClasses = 0 }},
		{"zero clients", func(c *Config) { c.NumClients = 0 }},
		{"bad cluster size range", func(c *Config) { c.MaxServersPerCluster = c.MinServersPerCluster - 1 }},
		{"zero prediction", func(c *Config) { c.PredictionFactor = 0 }},
		{"prediction above 1", func(c *Config) { c.PredictionFactor = 1.5 }},
		{"inverted range", func(c *Config) { c.Arrival = Range{Min: 2, Max: 1} }},
		{"negative range", func(c *Config) { c.DiskNeed = Range{Min: -1, Max: 1} }},
		{"zero exec min", func(c *Config) { c.ExecTime = Range{Min: 0, Max: 1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
			if _, err := Generate(cfg); err == nil {
				t.Fatal("Generate accepted invalid config")
			}
		})
	}
}

func TestRangeDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Range{Min: 2, Max: 6}
	for i := 0; i < 1000; i++ {
		v := r.draw(rng)
		if v < 2 || v > 6 {
			t.Fatalf("draw %v outside range", v)
		}
	}
	point := Range{Min: 3, Max: 3}
	if v := point.draw(rng); v != 3 {
		t.Fatalf("degenerate range draw = %v", v)
	}
}

// Property: any seed generates a scenario that passes model validation.
func TestGenerateAlwaysValid(t *testing.T) {
	f := func(seed int64, nClients uint8) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.NumClients = 1 + int(nClients)%64
		scen, err := Generate(cfg)
		if err != nil {
			return false
		}
		return scen.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
