package model

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// tinyCloud builds a small valid cloud: 2 clusters, 2 server classes,
// 1 utility class, 3 servers.
func tinyCloud() Cloud {
	return Cloud{
		ServerClasses: []ServerClass{
			{ID: 0, ProcCap: 4, StoreCap: 4, CommCap: 4, FixedCost: 2, UtilizationCost: 1},
			{ID: 1, ProcCap: 2, StoreCap: 6, CommCap: 3, FixedCost: 3, UtilizationCost: 2},
		},
		UtilityClasses: []UtilityClass{{ID: 0, Base: 4, Slope: 0.5}},
		Clusters: []Cluster{
			{ID: 0, Servers: []ServerID{0, 1}},
			{ID: 1, Servers: []ServerID{2}},
		},
		Servers: []Server{
			{ID: 0, Class: 0, Cluster: 0},
			{ID: 1, Class: 1, Cluster: 0},
			{ID: 2, Class: 0, Cluster: 1},
		},
	}
}

func tinyScenario() *Scenario {
	return &Scenario{
		Cloud: tinyCloud(),
		Clients: []Client{
			{ID: 0, Class: 0, ArrivalRate: 1, PredictedRate: 1, ProcTime: 0.5, CommTime: 0.5, DiskNeed: 1},
			{ID: 1, Class: 0, ArrivalRate: 2, PredictedRate: 2, ProcTime: 0.7, CommTime: 0.4, DiskNeed: 0.5},
		},
	}
}

func TestUtilityValue(t *testing.T) {
	u := UtilityClass{Base: 4, Slope: 0.5}
	tests := []struct {
		resp, want float64
	}{
		{0, 4},
		{2, 3},
		{8, 0},
		{100, 0}, // clipped at zero: utility is non-increasing, never negative
	}
	for _, tt := range tests {
		if got := u.Value(tt.resp); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Value(%v) = %v, want %v", tt.resp, got, tt.want)
		}
	}
}

func TestUtilityBreakEven(t *testing.T) {
	u := UtilityClass{Base: 4, Slope: 0.5}
	if got := u.BreakEvenResponse(); math.Abs(got-8) > 1e-12 {
		t.Fatalf("BreakEvenResponse = %v, want 8", got)
	}
	flat := UtilityClass{Base: 4, Slope: 0}
	if got := flat.BreakEvenResponse(); got != _maxFiniteResponse {
		t.Fatalf("flat class break-even = %v, want sentinel", got)
	}
}

func TestCloudValidateOK(t *testing.T) {
	c := tinyCloud()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid cloud rejected: %v", err)
	}
}

func TestCloudValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(c *Cloud)
		wantSub string
	}{
		{"no classes", func(c *Cloud) { c.ServerClasses = nil }, "no server classes"},
		{"no utilities", func(c *Cloud) { c.UtilityClasses = nil }, "no utility classes"},
		{"bad class id", func(c *Cloud) { c.ServerClasses[1].ID = 5 }, "has ID"},
		{"negative capacity", func(c *Cloud) { c.ServerClasses[0].ProcCap = -1 }, "non-positive capacity"},
		{"negative cost", func(c *Cloud) { c.ServerClasses[0].FixedCost = -1 }, "negative cost"},
		{"negative utility", func(c *Cloud) { c.UtilityClasses[0].Slope = -1 }, "negative parameter"},
		{"unknown server in cluster", func(c *Cloud) { c.Clusters[0].Servers[0] = 99 }, "unknown server"},
		{"duplicate server", func(c *Cloud) { c.Clusters[1].Servers = []ServerID{2, 0} }, "in clusters"},
		{"server class unknown", func(c *Cloud) { c.Servers[0].Class = 9 }, "unknown class"},
		{"orphan server", func(c *Cloud) { c.Clusters[1].Servers = nil }, "belongs to no cluster"},
		{"wrong home cluster", func(c *Cloud) { c.Servers[2].Cluster = 0 }, "declares cluster"},
		{"pre share out of range", func(c *Cloud) { c.Servers[0].PreProcShare = 1.5 }, "pre-allocated share"},
		{"pre disk too large", func(c *Cloud) { c.Servers[0].PreDisk = 100 }, "pre-allocated disk"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := tinyCloud()
			tt.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("mutated cloud accepted")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestScenarioValidate(t *testing.T) {
	s := tinyScenario()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(s *Scenario)
	}{
		{"no clients", func(s *Scenario) { s.Clients = nil }},
		{"bad client id", func(s *Scenario) { s.Clients[1].ID = 7 }},
		{"unknown class", func(s *Scenario) { s.Clients[0].Class = 9 }},
		{"zero arrival only", func(s *Scenario) { s.Clients[0].ArrivalRate = 0 }},
		{"zero predicted only", func(s *Scenario) { s.Clients[0].PredictedRate = 0 }},
		{"negative arrival", func(s *Scenario) {
			s.Clients[0].ArrivalRate = -1
			s.Clients[0].PredictedRate = -1
		}},
		{"zero exec", func(s *Scenario) { s.Clients[0].ProcTime = 0 }},
		{"negative disk", func(s *Scenario) { s.Clients[0].DiskNeed = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := tinyScenario()
			tt.mutate(s)
			if err := s.Validate(); err == nil {
				t.Fatal("mutated scenario accepted")
			}
		})
	}
}

func TestCloudAccessors(t *testing.T) {
	c := tinyCloud()
	if got := c.ServerClass(1); got.ID != 1 {
		t.Fatalf("ServerClass(1).ID = %v", got.ID)
	}
	if got := c.ClusterServers(0); len(got) != 2 || got[0] != 0 {
		t.Fatalf("ClusterServers(0) = %v", got)
	}
	if c.NumServers() != 3 || c.NumClusters() != 2 {
		t.Fatalf("counts: servers=%d clusters=%d", c.NumServers(), c.NumClusters())
	}
	s := tinyScenario()
	if s.NumClients() != 2 {
		t.Fatalf("NumClients = %d", s.NumClients())
	}
	if got := s.Utility(0); got.Base != 4 {
		t.Fatalf("Utility(0) = %+v", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := tinyScenario()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClients() != s.NumClients() || got.Cloud.NumServers() != s.Cloud.NumServers() {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Clients[1].ProcTime != s.Clients[1].ProcTime {
		t.Fatalf("client field mismatch after round trip")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"cloud":{},"clients":[]}`)); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scen.json")
	s := tinyScenario()
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClients() != 2 {
		t.Fatalf("loaded %d clients", got.NumClients())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestUtilityNonIncreasingProperty: the SLA utility never increases with
// response time and is never negative (the paper's non-increasing utility
// class requirement).
func TestUtilityNonIncreasingProperty(t *testing.T) {
	f := func(baseRaw, slopeRaw, r1Raw, r2Raw float64) bool {
		u := UtilityClass{
			Base:  math.Mod(math.Abs(baseRaw), 10),
			Slope: math.Mod(math.Abs(slopeRaw), 3),
		}
		r1 := math.Mod(math.Abs(r1Raw), 50)
		r2 := r1 + math.Mod(math.Abs(r2Raw), 50)
		v1, v2 := u.Value(r1), u.Value(r2)
		return v1 >= v2 && v2 >= 0 && v1 <= u.Base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBreakEvenConsistency: at the break-even response time the utility
// is zero (for positive slopes).
func TestBreakEvenConsistency(t *testing.T) {
	f := func(baseRaw, slopeRaw float64) bool {
		u := UtilityClass{
			Base:  0.1 + math.Mod(math.Abs(baseRaw), 10),
			Slope: 0.1 + math.Mod(math.Abs(slopeRaw), 3),
		}
		be := u.BreakEvenResponse()
		return u.Value(be) < 1e-9 && u.Value(be*0.99) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAbsentClientValidates pins the zero-rate convention the online
// service relies on: both rates zero marks an absent (departed or
// not-yet-arrived) client and is valid; exactly one zero is not.
func TestAbsentClientValidates(t *testing.T) {
	s := tinyScenario()
	s.Clients[0].ArrivalRate = 0
	s.Clients[0].PredictedRate = 0
	if err := s.Validate(); err != nil {
		t.Fatalf("absent client rejected: %v", err)
	}
}

// TestValidateRejectsNonFinite: every float field rejects NaN, and the
// two rates reject ±Inf. The rates matter most: the epoch controller
// writes predictor forecasts into them before a solve. +Inf DiskNeed
// stays legal and means "fits nowhere".
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tt := range []struct {
		name   string
		mutate func(s *Scenario)
	}{
		{"NaN rates", func(s *Scenario) { s.Clients[0].ArrivalRate, s.Clients[0].PredictedRate = nan, nan }},
		{"+Inf rates", func(s *Scenario) { s.Clients[0].ArrivalRate, s.Clients[0].PredictedRate = inf, inf }},
		{"-Inf rates", func(s *Scenario) { s.Clients[0].ArrivalRate, s.Clients[0].PredictedRate = -inf, -inf }},
		{"+Inf predicted rate", func(s *Scenario) { s.Clients[0].PredictedRate = inf }},
		{"NaN proc time", func(s *Scenario) { s.Clients[0].ProcTime = nan }},
		{"NaN comm time", func(s *Scenario) { s.Clients[0].CommTime = nan }},
		{"NaN disk need", func(s *Scenario) { s.Clients[0].DiskNeed = nan }},
		{"NaN capacity", func(s *Scenario) { s.Cloud.ServerClasses[0].StoreCap = nan }},
		{"NaN cost", func(s *Scenario) { s.Cloud.ServerClasses[1].UtilizationCost = nan }},
		{"NaN utility", func(s *Scenario) { s.Cloud.UtilityClasses[0].Base = nan }},
		{"NaN pre share", func(s *Scenario) { s.Cloud.Servers[1].PreCommShare = nan }},
		{"NaN pre disk", func(s *Scenario) { s.Cloud.Servers[2].PreDisk = nan }},
	} {
		s := tinyScenario()
		tt.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", tt.name)
		}
	}
	s := tinyScenario()
	s.Clients[1].DiskNeed = inf
	if err := s.Validate(); err != nil {
		t.Errorf("+Inf disk need rejected: %v", err)
	}
}

// TestCloneScenarioIsDeep pins that mutating a clone's rates and cluster
// membership never leaks into the original.
func TestCloneScenarioIsDeep(t *testing.T) {
	s := tinyScenario()
	c := CloneScenario(s)
	c.Clients[0].ArrivalRate = 99
	c.Cloud.Clusters[0].Servers[0] = 2
	if s.Clients[0].ArrivalRate == 99 {
		t.Fatal("clone shares the client slice")
	}
	if s.Cloud.Clusters[0].Servers[0] == 2 {
		t.Fatal("clone shares a cluster's server slice")
	}
	if err := c.Validate(); err == nil {
		// Mutated clone may or may not validate; the point is isolation.
		_ = err
	}
}
