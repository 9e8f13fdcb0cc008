package sparse

// The COO round-trip reference and its bitwise comparison, for the
// external test package that pins PermuteSym on assembled plates.
var (
	PermuteSymCOO = permuteSymCOO
	SameCSR       = sameCSR
)
