package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/workload"
)

// benchReassignSetup builds a solver in the requested mode plus a greedy
// (not yet reassigned) allocation — the state the pass sees inside
// ImproveLocalCtx's first round.
func benchReassignSetup(b *testing.B, clients int, mutate func(*Config)) (*Solver, *alloc.Allocation) {
	b.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.NumClients = clients
	wcfg.Seed = 42
	scen, err := workload.Generate(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewSolver(scen, cfg)
	if err != nil {
		b.Fatal(err)
	}
	a, err := s.InitialSolution(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return s, a
}

// BenchmarkReassignmentPass measures one reassignment pass over a fresh
// greedy allocation with one scoring worker and with the full worker
// pool. Run with -cpu 1,4,8 for the scaling row.
func BenchmarkReassignmentPass(b *testing.B) {
	modes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"workers1", func(c *Config) { c.Workers = 1 }},
		{"parallel", func(c *Config) { c.Workers = 0 }},
	}
	for _, clients := range []int{50, 250, 1000} {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("clients=%d/mode=%s", clients, mode.name), func(b *testing.B) {
				s, base := benchReassignSetup(b, clients, mode.mutate)
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					a := base.Clone()
					b.StartTimer()
					s.ReassignmentPassCtx(context.Background(), a)
				}
			})
		}
	}
}

// BenchmarkReassignmentPassConverged measures the cross-round skip path:
// repeated passes over an already-converged allocation, where the
// dirty-cluster marks reduce the pass to a clean-scan —
// O(clients) instead of O(clients × clusters × servers).
func BenchmarkReassignmentPassConverged(b *testing.B) {
	s, a := benchReassignSetup(b, 250, nil)
	for i := 0; i < 10 && s.ReassignmentPassCtx(context.Background(), a) > 0; i++ {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if moves := s.ReassignmentPassCtx(context.Background(), a); moves != 0 {
			b.Fatalf("converged allocation moved %d clients", moves)
		}
	}
}
