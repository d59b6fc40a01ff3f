// What-if capacity planning: sweep the datacenter size for a fixed client
// population, solve each configuration, and locate the profit knee —
// then validate the chosen configuration with the discrete-event
// simulator. This is the kind of downstream use the paper's model
// enables beyond the runtime allocator itself.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	cloudalloc "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const clients = 80
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "servers/cluster\ttotal servers\tprofit\tactive\tserved")

	var (
		bestProfit float64
		bestAlloc  *cloudalloc.Allocation
		bestSize   int
	)
	for _, perCluster := range []int{4, 6, 8, 12, 16, 20} {
		cfg := cloudalloc.DefaultWorkloadConfig()
		cfg.NumClients = clients
		cfg.MinServersPerCluster = perCluster
		cfg.MaxServersPerCluster = perCluster
		cfg.Seed = 21
		scen, err := cloudalloc.GenerateScenario(cfg)
		if err != nil {
			return err
		}
		al, err := cloudalloc.NewAllocator(scen, cloudalloc.WithSeed(1))
		if err != nil {
			return err
		}
		a, _, err := al.Solve()
		if err != nil {
			return err
		}
		b := a.ProfitBreakdown()
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%d\t%d/%d\n",
			perCluster, scen.Cloud.NumServers(), b.Profit, b.ActiveServers, b.Served, clients)
		if b.Profit > bestProfit {
			bestProfit, bestAlloc, bestSize = b.Profit, a, perCluster
		}
	}
	w.Flush()

	if bestAlloc == nil {
		return fmt.Errorf("no profitable configuration found")
	}
	fmt.Printf("\nbest configuration: %d servers per cluster (profit %.2f)\n", bestSize, bestProfit)

	// Double-check the winner with the discrete-event simulator.
	simCfg := cloudalloc.DefaultSimConfig()
	simCfg.Horizon = 10000
	res, err := cloudalloc.Simulate(bestAlloc, simCfg)
	if err != nil {
		return err
	}
	fmt.Printf("simulated: %d requests, realized profit %.2f vs analytic %.2f\n",
		res.Completed, res.Profit, res.AnalyticValue)
	return nil
}
