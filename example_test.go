package cloudalloc_test

import (
	"fmt"
	"log"

	cloudalloc "repro"
)

// ExampleUtilityClass_Value shows the SLA utility: revenue per request
// decays linearly with mean response time and never goes negative.
func ExampleUtilityClass_Value() {
	gold := cloudalloc.UtilityClass{Base: 4, Slope: 0.5}
	fmt.Println(gold.Value(0))  // instant responses earn the full price
	fmt.Println(gold.Value(2))  // 2 time units of latency cost 1.0
	fmt.Println(gold.Value(10)) // beyond break-even the request is free
	// Output:
	// 4
	// 3
	// 0
}

// ExampleNewAllocator runs the full Resource_Alloc pipeline on a random
// paper-shaped scenario.
func ExampleNewAllocator() {
	cfg := cloudalloc.DefaultWorkloadConfig()
	cfg.NumClients = 30
	scen, err := cloudalloc.GenerateScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	al, err := cloudalloc.NewAllocator(scen, cloudalloc.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	a, _, err := al.Solve()
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println(a.Profit() > 0)
	// Output:
	// true
}

// ExampleSimulate validates an allocation with the discrete-event
// simulator.
func ExampleSimulate() {
	cfg := cloudalloc.DefaultWorkloadConfig()
	cfg.NumClients = 10
	scen, err := cloudalloc.GenerateScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	al, err := cloudalloc.NewAllocator(scen)
	if err != nil {
		log.Fatal(err)
	}
	a, _, err := al.Solve()
	if err != nil {
		log.Fatal(err)
	}
	simCfg := cloudalloc.DefaultSimConfig()
	simCfg.Horizon = 1000
	res, err := cloudalloc.Simulate(a, simCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Completed > 0)
	// Output:
	// true
}

// ExampleGenerateTrace builds a diurnal rate trace for the decision
// controller.
func ExampleGenerateTrace() {
	base := []float64{1, 2, 3}
	tr, err := cloudalloc.GenerateTrace(base, 4, []cloudalloc.Pattern{
		cloudalloc.Diurnal{Period: 4, Amplitude: 0.5},
	}, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(tr), len(tr[0]))
	// Output:
	// 4 3
}
