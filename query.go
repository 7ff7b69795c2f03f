package heavyhitters

// CountersForHeavyHitters returns the classical counter budget ⌈1/φ⌉ + 1
// that guarantees every φ-heavy hitter is stored (its frequency exceeds
// the maximum possible estimation error F1/m), so Summary.HeavyHitters
// has no false negatives. WithErrorBudget sizes from it.
func CountersForHeavyHitters(phi float64) int {
	if phi <= 0 || phi > 1 {
		panic("heavyhitters: phi must be in (0, 1]")
	}
	return int(1/phi) + 1
}
