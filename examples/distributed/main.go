// Distributed: the paper's central-manager-plus-cluster-agents
// decomposition, end to end over real TCP sockets. One agent per cluster
// is served on a loopback listener; the manager dials all of them,
// fans out evaluations in parallel and merges the final allocation.
//
// In production the agents would run next to their clusters (see
// cmd/allocd and cmd/allocctl for the daemon form).
package main

import (
	"fmt"
	"log"
	"net"

	cloudalloc "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := cloudalloc.DefaultWorkloadConfig()
	cfg.NumClients = 40
	cfg.Seed = 11
	scen, err := cloudalloc.GenerateScenario(cfg)
	if err != nil {
		return err
	}

	// Serve one agent per cluster on its own TCP listener.
	var servers []*cloudalloc.AgentServer
	var agents []cloudalloc.Agent
	for k := 0; k < scen.Cloud.NumClusters(); k++ {
		local, err := cloudalloc.NewLocalAgent(scen, cloudalloc.ClusterID(k))
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := cloudalloc.ServeAgent(l, local, nil)
		go func() {
			if err := srv.Serve(); err != nil {
				log.Printf("agent serve: %v", err)
			}
		}()
		servers = append(servers, srv)
		fmt.Printf("cluster %d agent listening on %s\n", k, srv.Addr())

		remote, err := cloudalloc.DialAgent(srv.Addr().String(), cloudalloc.DefaultAgentCallPolicy(), nil)
		if err != nil {
			return err
		}
		agents = append(agents, remote)
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	mgr, err := cloudalloc.NewManager(scen, agents, cloudalloc.DefaultManagerConfig())
	if err != nil {
		return err
	}
	defer mgr.Close()

	a, stats, err := mgr.Solve()
	if err != nil {
		return err
	}
	b := a.ProfitBreakdown()
	fmt.Printf("\ndistributed solve: %d clients placed, profit %.2f in %s (%d improve rounds)\n",
		b.Assigned, b.Profit, stats.Elapsed, stats.ImproveRounds)
	fmt.Printf("activations %d, deactivations %d, active servers %d\n",
		stats.Activations, stats.Deactivations, b.ActiveServers)
	return nil
}
