package lp

// Numerical tolerances, hoisted into one place so the revised simplex
// and the dense tableau test oracle (dense_test.go) cannot drift apart.
// The paper's instances are small and well scaled (unit costs, traffic
// volumes normalized by the generator), so fixed tolerances are
// adequate.
const (
	// epsCost is the reduced-cost optimality (dual feasibility)
	// tolerance.
	epsCost = 1e-7
	// epsPiv is the minimum admissible pivot magnitude.
	epsPiv = 1e-9
	// epsFeas is the feasibility tolerance on variable values.
	epsFeas = 1e-7
	// epsArt is the phase-1 threshold on the residual artificial sum
	// below which the basis counts as feasible.
	epsArt = 1e-6
	// epsRow is the constraint-violation tolerance used when validating
	// a caller-provided point (Problem.Evaluate).
	epsRow = 1e-6
	// epsDrop discards eta-file entries smaller than this in magnitude.
	epsDrop = 1e-12
	// devexMaxWeight is the Devex reference-weight blow-up threshold:
	// when any weight exceeds it the reference framework is reset.
	devexMaxWeight = 1e7
	// farkasDrop zeroes the entries of an infeasibility certificate ρ at
	// or below this share of max|ρ| (farkasCertified).
	farkasDrop = 1e-9
	// farkasMargin and farkasRel set how far ρ·b must lie outside the
	// range of ρ·A·x over the bounds before the certificate is
	// accepted: farkasMargin·max|ρ|·epsArt plus farkasRel of the summed
	// magnitudes.
	farkasMargin = 10
	farkasRel    = 1e-9
)

// The two helpers below are the sanctioned forms of *exact* float
// comparison. The placevet floatcmp analyzer flags bare ==/!= on
// floats everywhere in lp/mip/cover except this file, so every exact
// comparison in the numerical substrate is either one of these calls —
// stating its intent — or an explicitly waived site.

// StructZero reports whether a stored value is a structural (exact)
// zero: a sparse-matrix entry that was never written, a multiplier
// whose update can be skipped entirely, or an option field left at its
// zero sentinel. The test is exact by design — replacing it with a
// tolerance would *drop* small nonzero updates and change results.
func StructZero(x float64) bool { return x == 0 }

// ExactEq reports whether two floats are bit-comparable equal. Its one
// legitimate use is deterministic tie-breaking in comparators (equal
// sort keys must fall through to an index comparison on every machine
// the same way) and exact-bound detection (a binary variable has
// bounds exactly 0 and 1 by construction).
func ExactEq(a, b float64) bool { return a == b }
