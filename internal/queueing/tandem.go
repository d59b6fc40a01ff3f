package queueing

// PortionShares are the GPS shares granted to one portion of a client's
// requests on one server: a processing share and a communication share.
type PortionShares struct {
	Proc float64
	Comm float64
}

// ServerCaps are the two capacities of the server the portion runs on.
type ServerCaps struct {
	Proc float64
	Comm float64
}

// ExecTimes are the client's mean execution times per unit resource.
type ExecTimes struct {
	Proc float64
	Comm float64
}

// TandemDelay is the mean response time of one portion through the
// pipelined processing→communication queues (paper eq. (1)): the service
// times are independent and additive, and by Burke's theorem the departure
// process of the processing M/M/1 queue is Poisson with the same rate, so
// the communication queue is again M/M/1 with arrival rate a.
func TandemDelay(sh PortionShares, caps ServerCaps, ex ExecTimes, portionRate float64) (float64, error) {
	dp, err := PortionDelay(sh.Proc, caps.Proc, ex.Proc, portionRate)
	if err != nil {
		return 0, err
	}
	db, err := PortionDelay(sh.Comm, caps.Comm, ex.Comm, portionRate)
	if err != nil {
		return 0, err
	}
	return dp + db, nil
}
