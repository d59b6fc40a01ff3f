// Package opt contains the numerical optimization primitives the
// allocation heuristic is built from: Lagrange-multiplier water-filling
// for GPS shares (the closed form of the paper's eq. (16)/(18) plus a
// binary search on the multiplier), a concave-separable simplex allocator
// used for dispersion rates, the dynamic program that combines per-server
// portion values (paper Section V.A), and generic 1-D searches.
package opt

import "errors"

// errNoBracket is returned when a root cannot be bracketed in the given
// interval.
var errNoBracket = errors.New("opt: root not bracketed")

// _defaultBisectIters bounds the bisection loops; 200 halvings reduce any
// float64 bracket below 1 ulp.
const _defaultBisectIters = 200

// bisect finds x in [lo, hi] with f(x) ≈ 0 for a function that is
// monotone (either direction) on the interval. It requires f(lo) and
// f(hi) to have opposite signs (zero counts as either sign).
func bisect(f func(float64) float64, lo, hi float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, errNoBracket
	}
	for i := 0; i < _defaultBisectIters; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}
