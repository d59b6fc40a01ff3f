package alloc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// referenceBest is the plain scan PricingTable.Best must reproduce: the
// first maximum of GainUpperBoundAt over the clusters in ID order.
func referenceBest(ix *Index, i model.ClientID, rate float64, pend []PendingLoad) (model.ClusterID, float64, bool) {
	best, bound := model.ClusterID(Unassigned), math.Inf(-1)
	for k := range ix.aggs {
		kid := model.ClusterID(k)
		if b, ok := ix.GainUpperBoundAt(i, kid, rate, rate, pend[k]); ok && b > bound {
			best, bound = kid, b
		}
	}
	return best, bound, best != Unassigned
}

// checkBest fails t unless the table scan and the reference scan pick the
// same cluster with the same bound bits.
func checkBest(t testing.TB, tab *PricingTable, i model.ClientID, rate float64, pend []PendingLoad) {
	t.Helper()
	wk, wb, wok := referenceBest(tab.ix, i, rate, pend)
	gk, gb, gok := tab.Best(i, rate, func(k model.ClusterID) PendingLoad { return pend[k] })
	if gk != wk || gok != wok || math.Float64bits(gb) != math.Float64bits(wb) {
		t.Fatalf("client %d rate %v: Best = (%d, %v, %v), the plain scan = (%d, %v, %v)",
			i, rate, gk, gb, gok, wk, wb, wok)
	}
}

// Shapes of a synthetic cloud (syntheticIndex's flags).
const (
	shapeIdentical  = 1 << iota // every cluster copies cluster 0's servers and state
	shapeLadder                 // as identical, but cluster k's pre-shares sit k ulps lower
	shapeAllActive              // every server hosts a client: no wake state
	shapeNoneActive             // no server hosts a client: no active branch
	shapeServerless             // cluster 0 has no servers
)

// syntheticIndex builds a refreshed index over a random cloud of numK
// clusters shaped by flags. Capacities, times and costs are scaled by
// 2^capExp, 2^timeExp and 2^costExp, so extreme but finite magnitudes
// are reachable. Server states are written directly: a server is active
// when it holds a client, and its pre-shares set its free budgets.
func syntheticIndex(rng *rand.Rand, numK int, flags uint8, capExp, timeExp, costExp int) *Index {
	capScale, timeScale, costScale := math.Ldexp(1, capExp), math.Ldexp(1, timeExp), math.Ldexp(1, costExp)
	scen := &model.Scenario{}
	cloud := &scen.Cloud
	for c := 0; c < 1+rng.Intn(4); c++ {
		cloud.ServerClasses = append(cloud.ServerClasses, model.ServerClass{
			ID:              model.ServerClassID(c),
			ProcCap:         capScale * (2 + 4*rng.Float64()),
			StoreCap:        capScale * (2 + 4*rng.Float64()),
			CommCap:         capScale * (2 + 4*rng.Float64()),
			FixedCost:       costScale * 10 * rng.Float64(),
			UtilizationCost: costScale * 5 * rng.Float64(),
		})
	}
	for u := 0; u < 3; u++ {
		slope := 2 * rng.Float64()
		if u == 0 {
			slope = 0 // a utility that never decays
		}
		cloud.UtilityClasses = append(cloud.UtilityClasses, model.UtilityClass{
			ID: model.UtilityClassID(u), Base: costScale * 20 * rng.Float64(), Slope: costScale * slope / timeScale,
		})
	}
	type server struct {
		class      model.ServerClassID
		proc, comm float64
		disk       float64
		active     bool
	}
	draw := func() []server {
		ss := make([]server, 1+rng.Intn(6))
		for j := range ss {
			ss[j] = server{
				class: model.ServerClassID(rng.Intn(len(cloud.ServerClasses))),
				proc:  1.1 * rng.Float64(), comm: 1.1 * rng.Float64(),
				disk: capScale * 3 * rng.Float64(), active: rng.Intn(2) == 0,
			}
		}
		return ss
	}
	template := draw()
	var active []model.ServerID
	for k := 0; k < numK; k++ {
		ss := template
		switch {
		case flags&shapeServerless != 0 && k == 0:
			ss = nil
		case flags&shapeLadder != 0:
			ss = append([]server(nil), template...)
			for j := range ss {
				for n := 0; n < k; n++ {
					ss[j].proc = math.Nextafter(ss[j].proc, -1)
					ss[j].comm = math.Nextafter(ss[j].comm, -1)
				}
			}
		case flags&shapeIdentical == 0:
			ss = draw()
		}
		cluster := model.Cluster{ID: model.ClusterID(k)}
		for _, s := range ss {
			j := model.ServerID(len(cloud.Servers))
			cloud.Servers = append(cloud.Servers, model.Server{ID: j, Class: s.class, Cluster: cluster.ID,
				PreProcShare: s.proc, PreCommShare: s.comm, PreDisk: s.disk})
			cluster.Servers = append(cluster.Servers, j)
			if (s.active || flags&shapeAllActive != 0) && flags&shapeNoneActive == 0 {
				active = append(active, j)
			}
		}
		cloud.Clusters = append(cloud.Clusters, cluster)
	}
	for i := 0; i < 6; i++ {
		scen.Clients = append(scen.Clients, model.Client{
			ID: model.ClientID(i), Class: model.UtilityClassID(rng.Intn(len(cloud.UtilityClasses))),
			ProcTime: timeScale * (0.4 + 0.6*rng.Float64()), CommTime: timeScale * (0.4 + 0.6*rng.Float64()),
			DiskNeed: capScale * 2 * rng.Float64(),
		})
	}
	a := New(scen)
	for _, j := range active {
		a.servers[j].clients[0] = struct{}{}
	}
	ix := NewIndex(a)
	ix.Refresh()
	return ix
}

// checkSynthetic runs queries against one synthetic cloud: every client
// at a few rates around rate, each with fresh per-cluster pending loads
// of either sign scaled by pendScale.
func checkSynthetic(t testing.TB, seed int64, numK int, flags uint8, capExp, timeExp, costExp int, rate, pendScale float64) {
	rng := rand.New(rand.NewSource(seed))
	tab := NewPricingTable(syntheticIndex(rng, numK, flags, capExp, timeExp, costExp))
	pend := make([]PendingLoad, numK)
	for i := range tab.ix.a.scen.Clients {
		for _, r := range []float64{rate, rate * rng.Float64(), rate * (1 + 4*rng.Float64()), -rate} {
			for q := 0; q < 4; q++ {
				for k := range pend {
					pend[k] = PendingLoad{}
					if q > 0 {
						pend[k] = PendingLoad{Proc: pendScale * (rng.Float64() - 0.3), Comm: pendScale * (rng.Float64() - 0.3)}
					}
				}
				checkBest(t, tab, model.ClientID(i), r, pend)
			}
		}
	}
}

// FuzzPricingTable is the differential test of the pricing table's scan:
// on synthetic clouds it must return the plain scan's cluster and bound
// bits. Clusters number 1–40; capacity, time and cost exponents span
// ±64 binary orders of magnitude.
func FuzzPricingTable(f *testing.F) {
	for _, s := range []struct {
		seed                     int64
		numK, flags              uint8
		capExp, timeExp, costExp int8
		rate, pendScale          float64
	}{
		{1, 5, 0, 0, 0, 0, 2, 3},
		{2, 16, shapeIdentical, 0, 0, 0, 1.5, 2},
		{3, 36, shapeLadder, 0, 0, 0, 2, 0},
		{6, 36, shapeLadder | shapeAllActive, 0, 0, 0, 2, 0.5},
		{5, 12, shapeAllActive, 0, 0, 0, 2, 1},
		{6, 12, shapeNoneActive, 0, 0, 0, 2, 1},
		{7, 8, shapeServerless, 0, 0, 0, 2, 4},
		{8, 8, shapeIdentical | shapeServerless, 0, 0, 0, 1, 1},
		{9, 20, 0, 60, -60, 40, 1e-3, 1e3},
		{10, 20, shapeLadder, -60, 60, -40, 1e12, 1e-6},
		{11, 40, 0, 0, 0, 0, 0, 3},
	} {
		f.Add(s.seed, s.numK, s.flags, s.capExp, s.timeExp, s.costExp, s.rate, s.pendScale)
	}
	f.Fuzz(func(t *testing.T, seed int64, numK, flags uint8, capExp, timeExp, costExp int8, rate, pendScale float64) {
		if math.IsNaN(pendScale) || math.IsInf(pendScale, 0) || math.Abs(pendScale) > 1e100 {
			pendScale = 1
		}
		checkSynthetic(t, seed, 1+int(numK)%40, flags, int(capExp)/2, int(timeExp)/2, int(costExp)/2, rate, pendScale)
	})
}

// TestPricingTableWakeStates: clusters with bit-identical wake inputs
// share one wake state, a cluster with every server active has none, and
// a cloud of small distinct clusters has more wake states than Best's
// stack buffer, where Best must still be exact.
func TestPricingTableWakeStates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if tab := NewPricingTable(syntheticIndex(rng, 16, shapeIdentical, 0, 0, 0)); len(tab.wakeRep) > 1 {
		t.Errorf("16 identical clusters: %d wake states, want at most 1", len(tab.wakeRep))
	}
	tab := NewPricingTable(syntheticIndex(rng, 16, shapeAllActive, 0, 0, 0))
	for k, row := range tab.rows {
		if row.wake != -1 || !row.active {
			t.Errorf("all active: cluster %d has wake state %d, active %v", k, row.wake, row.active)
		}
	}
	tab = NewPricingTable(syntheticIndex(rng, 64, 0, 0, 0, 0))
	if len(tab.wakeRep) <= wakeMemo {
		t.Fatalf("64 random clusters: %d wake states, want more than %d", len(tab.wakeRep), wakeMemo)
	}
	pend := make([]PendingLoad, 64)
	for i := range tab.ix.a.scen.Clients {
		checkBest(t, tab, model.ClientID(i), 2, pend)
	}
}
