package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// halfLoaded returns a solver and an allocation holding a greedy solution
// of every second client, so the servers of a cluster differ in residual
// capacity and the odd clients are free to be priced and placed.
func halfLoaded(t *testing.T, n int, seed int64) (*Solver, *alloc.Allocation) {
	t.Helper()
	scen := smallScenario(t, n, seed)
	s := newTestSolver(t, scen, nil)
	a := alloc.New(scen)
	gs := s.newGreedyState(a, s.all, telemetry.TraceRef{})
	for i := 0; i < n; i += 2 {
		if err := s.placeBest(a, model.ClientID(i), gs); err != nil && !errors.Is(err, ErrCannotPlace) {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return s, a
}

// TestAssignDistributeAllocFree: once a scratch has seen the cluster, the
// kernel allocates nothing, and the exported entry point allocates only
// the portions it hands to the caller.
func TestAssignDistributeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, a := halfLoaded(t, 40, 3)
	numK := s.scen.Cloud.NumClusters()
	scr := new(distScratch)
	var next int
	each := func(fn func(i model.ClientID, k model.ClusterID)) func() {
		return func() {
			next++
			fn(model.ClientID(2*(next%20)+1), model.ClusterID(next%numK))
		}
	}
	kernel := each(func(i model.ClientID, k model.ClusterID) {
		if _, _, err := s.assignDistribute(a, i, k, noServer, scr); err != nil {
			t.Fatal(err)
		}
	})
	exported := each(func(i model.ClientID, k model.ClusterID) {
		if _, _, err := s.AssignDistribute(a, i, k); err != nil {
			t.Fatal(err)
		}
	})
	for w := 0; w < 2*numK; w++ { // warm-up: size every buffer for every cluster
		kernel()
		exported()
	}
	if allocs := testing.AllocsPerRun(200, kernel); allocs != 0 {
		t.Fatalf("assignDistribute: %v allocations per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, exported); allocs > 1 {
		t.Fatalf("AssignDistribute: %v allocations per call, want at most 1 (the returned portions)", allocs)
	}
}

// TestSolveAllocBudget holds the order of magnitude, not the number: a
// cold default-config solve of a 200-client paper-shaped instance
// allocated 58.8 MB while every Assign_Distribute call made its own
// buffers and measures 3.0 MB with scratch-backed calls.
func TestSolveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 6 << 20
	s := newTestSolver(t, smallScenario(t, 200, 1), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("cold solve allocated %d bytes, budget %d", got, budget)
	}
}

// TestAssignDistributePortionsOwnership: the exported kernel's portions
// are the caller's, and portions handed to Assign from a scratch survive
// the scratch's next use.
func TestAssignDistributePortionsOwnership(t *testing.T) {
	s, a := halfLoaded(t, 20, 5)
	_, first, err := s.AssignDistribute(a, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]alloc.Portion(nil), first...)
	_, second, err := s.AssignDistribute(a, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := range second {
		second[n] = alloc.Portion{Server: -1}
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("second call's portions alias the first's: %+v, want %+v", first, want)
	}

	scr := new(distScratch)
	_, portions, err := s.assignDistribute(a, 1, 0, noServer, scr)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(1, 0, portions); err != nil {
		t.Fatal(err)
	}
	placed := append([]alloc.Portion(nil), a.Portions(1)...)
	for _, i := range []model.ClientID{3, 5, 7} {
		if _, _, err := s.assignDistribute(a, i, 0, noServer, scr); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(a.Portions(1), placed) {
		t.Fatalf("assigned portions changed with the scratch: %+v, want %+v", a.Portions(1), placed)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAssignDistributeConcurrent: goroutines sharing one Solver and one
// read-only allocation get the serial answers (run under -race).
func TestAssignDistributeConcurrent(t *testing.T) {
	s, a := halfLoaded(t, 30, 9)
	numK := s.scen.Cloud.NumClusters()
	type answer struct {
		est      float64
		portions []alloc.Portion
		err      error
	}
	price := func(q int) answer {
		est, portions, err := s.AssignDistribute(a, model.ClientID(2*(q/numK)+1), model.ClusterID(q%numK))
		return answer{est, portions, err}
	}
	serial := make([]answer, 15*numK)
	for q := range serial {
		serial[q] = price(q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, q := range rand.New(rand.NewSource(int64(g))).Perm(len(serial)) {
				if got := price(q); !reflect.DeepEqual(got, serial[q]) {
					t.Errorf("goroutine %d, query %d: %+v, want %+v", g, q, got, serial[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// fullDisk is a placementView on which one server has no disk left.
type fullDisk struct {
	placementView
	server model.ServerID
}

func (v fullDisk) DiskUsed(j model.ServerID) float64 {
	if j == v.server {
		return math.Inf(1)
	}
	return v.placementView.DiskUsed(j)
}

// TestAssignDistributeExcludedServer: excluding a server (what TurnOFF's
// drain experiment asks for) never routes to it and prices the rest of
// the cluster exactly as if that server merely could not host the client.
func TestAssignDistributeExcludedServer(t *testing.T) {
	s, a := halfLoaded(t, 40, 7)
	scr, ref := new(distScratch), new(distScratch)
	for k := 0; k < s.scen.Cloud.NumClusters(); k++ {
		kid := model.ClusterID(k)
		for _, j := range s.scen.Cloud.ClusterServers(kid) {
			for _, i := range []model.ClientID{1, 3} {
				est, portions, err := s.assignDistribute(a, i, kid, j, scr)
				wantEst, want, wantErr := s.assignDistribute(fullDisk{a, j}, i, kid, noServer, ref)
				if err != wantErr || est != wantEst || !reflect.DeepEqual(portions, want) {
					t.Fatalf("client %d, cluster %d without server %d: (%v, %+v, %v), want (%v, %+v, %v)",
						i, k, j, est, portions, err, wantEst, want, wantErr)
				}
				if hasServer(portions, j) {
					t.Fatalf("client %d routed to excluded server %d: %+v", i, j, portions)
				}
			}
		}
	}
}

// unmemoizedDistribute is assignDistribute without the identical-server
// memo: every server gets rows of its own.
func (s *Solver) unmemoizedDistribute(v placementView, i model.ClientID, k model.ClusterID,
	exclude model.ServerID) (float64, []alloc.Portion, error) {
	scen := s.scen
	cl := &scen.Clients[i]
	u := scen.Utility(i)
	w := cl.ArrivalRate * u.Slope
	g := s.cfg.AlphaGranularity
	var (
		cands []candidate
		rows  [][]float64
	)
	for _, j := range scen.Cloud.ClusterServers(k) {
		if j == exclude {
			continue
		}
		class := scen.Cloud.ServerClass(j)
		key := candidateKey{
			class:  class.ID,
			availP: 1 - v.ProcShareUsed(j),
			availB: 1 - v.CommShareUsed(j),
			diskOK: v.DiskUsed(j)+cl.DiskNeed <= class.StoreCap,
			active: v.Active(j),
		}
		cand := candidate{server: j, values: make([]float64, g+1), shareP: make([]float64, g+1), shareB: make([]float64, g+1)}
		s.tabulateServer(&cand, cl, u, w, class, key, g)
		cands, rows = append(cands, cand), append(rows, cand.values)
	}
	if len(rows) == 0 {
		return 0, nil, ErrCannotPlace
	}
	best, units, err := new(opt.PortionScratch).Combine(rows, g)
	if errors.Is(err, opt.ErrNoFeasibleCombination) {
		return 0, nil, ErrCannotPlace
	} else if err != nil {
		return 0, nil, err
	}
	var portions []alloc.Portion
	for c, ug := range units {
		if ug > 0 {
			portions = append(portions, alloc.Portion{
				Server:    cands[c].server,
				Alpha:     float64(ug) / float64(g),
				ProcShare: cands[c].shareP[ug],
				CommShare: cands[c].shareB[ug],
			})
		}
	}
	return best, portions, nil
}

// TestAssignDistributeMemoMatchesUnmemoized: sharing one tabulation among
// identical servers changes no answer — estimate bits, portions and error
// equal a tabulation of every server, with and without an excluded
// server or one without disk, in a scratch reused across every query.
func TestAssignDistributeMemoMatchesUnmemoized(t *testing.T) {
	type query struct {
		v       placementView
		exclude model.ServerID
	}
	for _, seed := range []int64{3, 11} {
		s, a := halfLoaded(t, 40, seed)
		scr := new(distScratch)
		for k := 0; k < s.scen.Cloud.NumClusters(); k++ {
			kid := model.ClusterID(k)
			for i := model.ClientID(1); i < 40; i += 2 {
				queries := []query{{a, noServer}}
				if i < 5 {
					for _, j := range s.scen.Cloud.ClusterServers(kid) {
						queries = append(queries, query{a, j}, query{fullDisk{a, j}, noServer})
					}
				}
				for _, q := range queries {
					wantEst, want, wantErr := s.unmemoizedDistribute(q.v, i, kid, q.exclude)
					est, portions, err := s.assignDistribute(q.v, i, kid, q.exclude, scr)
					if !reflect.DeepEqual(err, wantErr) || math.Float64bits(est) != math.Float64bits(wantEst) ||
						!reflect.DeepEqual(portions, want) {
						t.Fatalf("seed %d, client %d, cluster %d, %+v: (%v, %+v, %v), want (%v, %+v, %v)",
							seed, i, k, q, est, portions, err, wantEst, want, wantErr)
					}
				}
			}
		}
	}
}
