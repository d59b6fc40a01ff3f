package model

import (
	"errors"
	"fmt"
	"math"
)

// Client is one application workload with an SLA.
//
// ArrivalRate is the agreed (contract) Poisson request rate λ used to price
// the SLA; PredictedRate is the rate λ̃ the allocator provisions for
// (Section III of the paper: "predicted average request arrival rates are
// used to allocate resources"). ProcTime and CommTime are the mean
// execution times of one request on one unit of processing and
// communication capacity. DiskNeed is the constant storage reservation m_i
// required on every server that serves any portion of the client.
type Client struct {
	ID            ClientID       `json:"id"`
	Class         UtilityClassID `json:"class"`
	ArrivalRate   float64        `json:"arrivalRate"`
	PredictedRate float64        `json:"predictedRate"`
	ProcTime      float64        `json:"procTime"`
	CommTime      float64        `json:"commTime"`
	DiskNeed      float64        `json:"diskNeed"`
}

// Validate checks the client parameters against the cloud it targets.
func (cl Client) Validate(c *Cloud) error {
	if int(cl.Class) < 0 || int(cl.Class) >= len(c.UtilityClasses) {
		return fmt.Errorf("client %d: unknown utility class %d", cl.ID, cl.Class)
	}
	// NaN fails every comparison, so each check below is written to
	// pass only on valid values; rates must also be finite.
	if !(cl.ArrivalRate >= 0) || math.IsInf(cl.ArrivalRate, 1) {
		return fmt.Errorf("client %d: arrival rate %v is not finite and non-negative", cl.ID, cl.ArrivalRate)
	}
	if !(cl.PredictedRate >= 0) || math.IsInf(cl.PredictedRate, 1) {
		return fmt.Errorf("client %d: predicted rate %v is not finite and non-negative", cl.ID, cl.PredictedRate)
	}
	// Both rates zero marks an absent client (departed, or not yet
	// arrived — the online service models churn this way); exactly one
	// zero is a contradiction between contract and provisioning.
	if (cl.ArrivalRate == 0) != (cl.PredictedRate == 0) {
		return fmt.Errorf("client %d: one of arrival/predicted rate is zero, the other positive", cl.ID)
	}
	if !(cl.ProcTime > 0 && cl.CommTime > 0) {
		return fmt.Errorf("client %d: non-positive execution time", cl.ID)
	}
	// +Inf disk need is legal: such a client fits on no server.
	if !(cl.DiskNeed >= 0) {
		return fmt.Errorf("client %d: negative or NaN disk need", cl.ID)
	}
	return nil
}

// Scenario is a complete problem instance: a cloud plus the client set to
// place on it.
type Scenario struct {
	Cloud   Cloud    `json:"cloud"`
	Clients []Client `json:"clients"`
}

// CloneScenario deep-copies a scenario so callers can mutate rates
// without touching the original. The epoch controller uses it to realize
// drifted epochs; the online service clones its input once and owns the
// copy for the lifetime of the service.
func CloneScenario(s *Scenario) *Scenario {
	c := &Scenario{
		Cloud: Cloud{
			ServerClasses:  append([]ServerClass(nil), s.Cloud.ServerClasses...),
			UtilityClasses: append([]UtilityClass(nil), s.Cloud.UtilityClasses...),
			Clusters:       make([]Cluster, len(s.Cloud.Clusters)),
			Servers:        append([]Server(nil), s.Cloud.Servers...),
		},
		Clients: append([]Client(nil), s.Clients...),
	}
	for k, cl := range s.Cloud.Clusters {
		c.Cloud.Clusters[k] = Cluster{
			ID:      cl.ID,
			Servers: append([]ServerID(nil), cl.Servers...),
		}
	}
	return c
}

// Utility returns the utility class of client i.
func (s *Scenario) Utility(i ClientID) UtilityClass {
	return s.Cloud.UtilityClasses[s.Clients[i].Class]
}

// NumClients returns the number of clients in the scenario.
func (s *Scenario) NumClients() int { return len(s.Clients) }

// Validate checks the whole scenario for internal consistency.
func (s *Scenario) Validate() error {
	if err := s.Cloud.Validate(); err != nil {
		return err
	}
	if len(s.Clients) == 0 {
		return errors.New("scenario: no clients")
	}
	for i, cl := range s.Clients {
		if cl.ID != ClientID(i) {
			return fmt.Errorf("scenario: client %d has ID %d", i, cl.ID)
		}
		if err := cl.Validate(&s.Cloud); err != nil {
			return err
		}
	}
	return nil
}
