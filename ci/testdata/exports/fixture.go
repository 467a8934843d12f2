// Package fixture is the module's facade: it re-exports lib's names the
// way the root package of a module does.
package fixture

import "fixture/internal/lib"

// Aliases of lib.UsedType, one per way a facade name is or is not used.
type (
	DeadAlias     = lib.UsedType // named by nothing
	ExampleAlias  = lib.UsedType // named by examples/demo
	RootTestAlias = lib.UsedType // named by a root test
)

// SelfOnlyAlias is named only by the facade itself: not reached.
type SelfOnlyAlias = lib.UsedType

// Make is named by examples/demo.
func Make() SelfOnlyAlias { return SelfOnlyAlias{} }
