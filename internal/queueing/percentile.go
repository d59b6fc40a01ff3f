package queueing

import (
	"errors"
	"math"
)

// tandemSojournTail is P(T > t) for the sum of the two independent
// exponential sojourn times of the pipelined processing→communication
// queues (a hypoexponential distribution): with rates r1 = μ1−λ and
// r2 = μ2−λ,
//
//	P(T > t) = (r2·e^{−r1·t} − r1·e^{−r2·t}) / (r2 − r1)
//
// and the Erlang-2 tail (1 + r·t)·e^{−r·t} when the rates coincide.
func tandemSojournTail(sh PortionShares, caps ServerCaps, ex ExecTimes, portionRate, t float64) (float64, error) {
	r1, err := stageRate(sh.Proc, caps.Proc, ex.Proc, portionRate)
	if err != nil {
		return 0, err
	}
	r2, err := stageRate(sh.Comm, caps.Comm, ex.Comm, portionRate)
	if err != nil {
		return 0, err
	}
	if t < 0 {
		return 1, nil
	}
	if diff := math.Abs(r1 - r2); diff < 1e-9*math.Max(r1, r2) {
		r := (r1 + r2) / 2
		return (1 + r*t) * math.Exp(-r*t), nil
	}
	return (r2*math.Exp(-r1*t) - r1*math.Exp(-r2*t)) / (r2 - r1), nil
}

// TandemSojournPercentile inverts tandemSojournTail by bisection: the
// smallest t with P(T > t) ≤ 1 − q.
func TandemSojournPercentile(sh PortionShares, caps ServerCaps, ex ExecTimes, portionRate, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, errors.New("queueing: percentile must be in (0,1)")
	}
	target := 1 - q
	// Bracket: the tail is 1 at t=0 and decays exponentially.
	hi := 1.0
	for {
		tail, err := tandemSojournTail(sh, caps, ex, portionRate, hi)
		if err != nil {
			return 0, err
		}
		if tail <= target {
			break
		}
		hi *= 2
		if hi > 1e12 {
			return 0, errors.New("queueing: percentile bracket failed")
		}
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := lo + (hi-lo)/2
		tail, err := tandemSojournTail(sh, caps, ex, portionRate, mid)
		if err != nil {
			return 0, err
		}
		if tail > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// stageRate is the exponential sojourn rate μ − λ of one stage.
func stageRate(share, capacity, exec, rate float64) (float64, error) {
	mu := GPSServiceRate(share, capacity, exec)
	if rate >= mu || mu <= 0 {
		return 0, errUnstable
	}
	return mu - rate, nil
}
