// Package queueing implements the analytical queueing model of the paper:
// M/M/1 response times under Generalized Processor Sharing (GPS), tandem
// (pipelined) processing+communication queues and their sojourn-time
// tails, and the stability bounds the optimizer must respect.
package queueing

import (
	"errors"
	"math"
)

// errUnstable is returned when an arrival rate meets or exceeds the service
// rate of a queue, so no finite mean response time exists.
var errUnstable = errors.New("queueing: arrival rate >= service rate (unstable queue)")

// mm1ResponseTime returns the mean sojourn (response) time of an M/M/1
// queue with the given service and arrival rates: 1/(μ − λ).
func mm1ResponseTime(serviceRate, arrivalRate float64) (float64, error) {
	if serviceRate <= 0 {
		return 0, errUnstable
	}
	if arrivalRate < 0 {
		return 0, errors.New("queueing: negative arrival rate")
	}
	if arrivalRate >= serviceRate {
		return 0, errUnstable
	}
	return 1 / (serviceRate - arrivalRate), nil
}

// GPSServiceRate converts a GPS share of a server into the M/M/1 service
// rate seen by the client: share × capacity / execTime, where execTime is
// the mean execution time of one request on one unit of capacity.
func GPSServiceRate(share, capacity, execTime float64) float64 {
	if execTime <= 0 {
		return math.Inf(1)
	}
	return share * capacity / execTime
}

// PortionDelay is the mean response time of the portion of a client's
// requests served on one server in one resource dimension:
//
//	t / (φ·C − a·t)
//
// with share φ, capacity C, execution time t and portion arrival rate a
// (= α·λ̃). It returns errUnstable when the share cannot sustain the load.
func PortionDelay(share, capacity, execTime, portionRate float64) (float64, error) {
	mu := GPSServiceRate(share, capacity, execTime)
	return mm1ResponseTime(mu, portionRate)
}

// MinStableShare is the GPS share strictly below which a portion with the
// given load is unstable: a·t/C. Callers must allocate strictly more.
func MinStableShare(capacity, execTime, portionRate float64) float64 {
	if capacity <= 0 {
		return math.Inf(1)
	}
	return portionRate * execTime / capacity
}

// LoadFraction is the fraction of a server's capacity a portion actually
// consumes (its contribution to the processing-domain utilization used in
// the energy cost model): a·t/C. Numerically identical to MinStableShare
// but semantically distinct: this one is work, not a share floor.
func LoadFraction(capacity, execTime, portionRate float64) float64 {
	return MinStableShare(capacity, execTime, portionRate)
}
