package coverpack

// The direct computations the shape cache memoizes, and the cached
// wrapper the engine reads ψ* through, for the external tests that
// compare the two.
var (
	AnalyzeDirect = analyze
	CachedPsi     = cachedPsi
)
