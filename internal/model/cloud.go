package model

import (
	"errors"
	"fmt"
)

// ServerClass describes a hardware type available to clusters.
//
// Capacities are the paper's normalized Cp (processing), Cm (local data
// storage) and Cb (communication). The operation cost of an active server
// of this class is FixedCost + UtilizationCost × (processing utilization).
type ServerClass struct {
	ID        ServerClassID `json:"id"`
	ProcCap   float64       `json:"procCap"`
	StoreCap  float64       `json:"storeCap"`
	CommCap   float64       `json:"commCap"`
	FixedCost float64       `json:"fixedCost"`
	// UtilizationCost is the paper's P1: cost per unit of processing-domain
	// utilization while the server is active.
	UtilizationCost float64 `json:"utilizationCost"`
}

// UtilityClass is an SLA class with a linear, non-increasing utility of the
// mean response time: U(R) = max(0, Base − Slope·R), interpreted as revenue
// per served request.
type UtilityClass struct {
	ID    UtilityClassID `json:"id"`
	Base  float64        `json:"base"`
	Slope float64        `json:"slope"`
}

// Value returns the per-request revenue at mean response time resp.
func (u UtilityClass) Value(resp float64) float64 {
	v := u.Base - u.Slope*resp
	if v < 0 {
		return 0
	}
	return v
}

// BreakEvenResponse returns the response time at which the utility reaches
// zero. For a zero slope it returns +Inf-free math by reporting Base/0 as a
// very large sentinel is avoided: callers must check Slope > 0 first; for
// Slope <= 0 the utility never decays and the returned value is the largest
// finite float the caller should treat as "no deadline".
func (u UtilityClass) BreakEvenResponse() float64 {
	if u.Slope <= 0 {
		return _maxFiniteResponse
	}
	return u.Base / u.Slope
}

// _maxFiniteResponse is a sentinel for "utility never reaches zero".
const _maxFiniteResponse = 1e18

// Server is a concrete machine inside a cluster.
//
// PreProcShare and PreCommShare are the fractions of the GPS share budget
// already consumed by workloads outside the allocation problem (the paper's
// cluster "initial state"); PreDisk is pre-reserved storage in absolute
// units.
type Server struct {
	ID           ServerID      `json:"id"`
	Class        ServerClassID `json:"class"`
	Cluster      ClusterID     `json:"cluster"`
	PreProcShare float64       `json:"preProcShare,omitempty"`
	PreCommShare float64       `json:"preCommShare,omitempty"`
	PreDisk      float64       `json:"preDisk,omitempty"`
}

// Cluster is a named group of servers managed by one cluster-level agent.
type Cluster struct {
	ID      ClusterID  `json:"id"`
	Servers []ServerID `json:"servers"`
}

// Cloud is the static description of the datacenter: server classes,
// utility classes, clusters and servers.
type Cloud struct {
	ServerClasses  []ServerClass  `json:"serverClasses"`
	UtilityClasses []UtilityClass `json:"utilityClasses"`
	Clusters       []Cluster      `json:"clusters"`
	Servers        []Server       `json:"servers"`
}

// ServerClass returns the class descriptor of server j.
func (c *Cloud) ServerClass(j ServerID) ServerClass {
	return c.ServerClasses[c.Servers[j].Class]
}

// ClusterServers returns the server IDs of cluster k. The returned slice is
// owned by the Cloud and must not be mutated.
func (c *Cloud) ClusterServers(k ClusterID) []ServerID {
	return c.Clusters[k].Servers
}

// NumServers returns the total number of servers in the cloud.
func (c *Cloud) NumServers() int { return len(c.Servers) }

// NumClusters returns the number of clusters in the cloud.
func (c *Cloud) NumClusters() int { return len(c.Clusters) }

// Validate checks internal consistency of the cloud description.
func (c *Cloud) Validate() error {
	if len(c.ServerClasses) == 0 {
		return errors.New("cloud: no server classes")
	}
	if len(c.UtilityClasses) == 0 {
		return errors.New("cloud: no utility classes")
	}
	for i, sc := range c.ServerClasses {
		if sc.ID != ServerClassID(i) {
			return fmt.Errorf("cloud: server class %d has ID %d", i, sc.ID)
		}
		// Written so that NaN, which fails every comparison, is rejected.
		if !(sc.ProcCap > 0 && sc.StoreCap > 0 && sc.CommCap > 0) {
			return fmt.Errorf("cloud: server class %d has non-positive capacity", i)
		}
		if !(sc.FixedCost >= 0 && sc.UtilizationCost >= 0) {
			return fmt.Errorf("cloud: server class %d has negative cost", i)
		}
	}
	for i, uc := range c.UtilityClasses {
		if uc.ID != UtilityClassID(i) {
			return fmt.Errorf("cloud: utility class %d has ID %d", i, uc.ID)
		}
		if !(uc.Base >= 0 && uc.Slope >= 0) {
			return fmt.Errorf("cloud: utility class %d has negative parameter", i)
		}
	}
	seen := make(map[ServerID]ClusterID, len(c.Servers))
	for ki, cl := range c.Clusters {
		if cl.ID != ClusterID(ki) {
			return fmt.Errorf("cloud: cluster %d has ID %d", ki, cl.ID)
		}
		for _, j := range cl.Servers {
			if int(j) < 0 || int(j) >= len(c.Servers) {
				return fmt.Errorf("cloud: cluster %d references unknown server %d", ki, j)
			}
			if prev, dup := seen[j]; dup {
				return fmt.Errorf("cloud: server %d in clusters %d and %d", j, prev, ki)
			}
			seen[j] = cl.ID
		}
	}
	for ji, srv := range c.Servers {
		if srv.ID != ServerID(ji) {
			return fmt.Errorf("cloud: server %d has ID %d", ji, srv.ID)
		}
		if int(srv.Class) < 0 || int(srv.Class) >= len(c.ServerClasses) {
			return fmt.Errorf("cloud: server %d has unknown class %d", ji, srv.Class)
		}
		home, ok := seen[srv.ID]
		if !ok {
			return fmt.Errorf("cloud: server %d belongs to no cluster", ji)
		}
		if home != srv.Cluster {
			return fmt.Errorf("cloud: server %d declares cluster %d but is listed in %d",
				ji, srv.Cluster, home)
		}
		if !(srv.PreProcShare >= 0 && srv.PreProcShare <= 1 &&
			srv.PreCommShare >= 0 && srv.PreCommShare <= 1) {
			return fmt.Errorf("cloud: server %d has pre-allocated share outside [0,1]", ji)
		}
		if !(srv.PreDisk >= 0 && srv.PreDisk <= c.ServerClasses[srv.Class].StoreCap) {
			return fmt.Errorf("cloud: server %d has invalid pre-allocated disk", ji)
		}
	}
	return nil
}
