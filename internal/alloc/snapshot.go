package alloc

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/model"
)

// Snapshot is the serializable form of an allocation: the per-client
// placements. Server bookkeeping is derived, so it is not stored.
type Snapshot struct {
	Placements []Placement `json:"placements"`
}

// Placement is one client's stored assignment.
type Placement struct {
	Client   model.ClientID  `json:"client"`
	Cluster  model.ClusterID `json:"cluster"`
	Portions []Portion       `json:"portions"`
}

// PortionJSON mirrors Portion for encoding. Portion itself has exported
// fields, so it marshals directly; this alias documents the stability of
// the wire format.
type PortionJSON = Portion

// Snapshot extracts the serializable state of the allocation.
func (a *Allocation) Snapshot() Snapshot {
	var s Snapshot
	for i := range a.scen.Clients {
		id := model.ClientID(i)
		if !a.Assigned(id) {
			continue
		}
		s.Placements = append(s.Placements, Placement{
			Client:   id,
			Cluster:  model.ClusterID(a.ClusterOf(id)),
			Portions: a.Portions(id),
		})
	}
	return s
}

// WriteJSON serializes the allocation snapshot to w.
func (a *Allocation) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a.Snapshot()); err != nil {
		return fmt.Errorf("alloc: encode snapshot: %w", err)
	}
	return nil
}

// fromSnapshot rebuilds an allocation over the scenario, validating every
// placement against the scenario's constraints.
func fromSnapshot(scen *model.Scenario, s Snapshot) (*Allocation, error) {
	a := New(scen)
	for _, pl := range s.Placements {
		if int(pl.Client) < 0 || int(pl.Client) >= scen.NumClients() {
			return nil, fmt.Errorf("alloc: snapshot references unknown client %d", pl.Client)
		}
		if err := a.Assign(pl.Client, pl.Cluster, pl.Portions); err != nil {
			return nil, fmt.Errorf("alloc: snapshot placement rejected: %w", err)
		}
	}
	return a, nil
}

// ReadJSON parses a snapshot from r and rebuilds the allocation over the
// scenario.
func ReadJSON(scen *model.Scenario, r io.Reader) (*Allocation, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("alloc: decode snapshot: %w", err)
	}
	return fromSnapshot(scen, s)
}
