package memo

// Exported for the external test package (memo_test), which exists
// because comparing searcher fingerprints imports internal/physical, and
// physical imports memo.
var (
	ExprKey     = exprKey
	TestCatalog = testCatalog
)
