package cost

import "math"

// Eps is the relative tolerance for cost comparisons. Estimated totals
// are sums of float64 terms whose grouping differs between otherwise
// identical plans (a join's Total accumulates child costs in tree
// order), so bitwise equality is meaningless: two plans that the model
// prices identically can differ in the last few ulps. All dominance
// tests in the optimizer go through Less/LessEq/ApproxEq so that such
// ties are decided by the deterministic tie-breakers (arrival order),
// not by rounding noise. The jitter test (TestJitterKeepsPlans in
// internal/core) checks this by moving every total a few ulps.
const Eps = 1e-9

// ApproxEq reports whether a and b are equal within Eps relative
// tolerance (absolute tolerance Eps near zero).
func ApproxEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale <= 1 {
		return diff <= Eps
	}
	return diff <= Eps*scale
}

// Less reports a < b beyond tolerance: a is strictly cheaper, not
// merely rounding-noise cheaper.
func Less(a, b float64) bool { return a < b && !ApproxEq(a, b) }

// LessEq reports a <= b within tolerance: a is cheaper or tied.
func LessEq(a, b float64) bool { return a <= b || ApproxEq(a, b) }
