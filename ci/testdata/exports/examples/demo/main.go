// Command demo names a facade alias, as the module's examples do.
package main

import "fixture"

func main() { _, _ = fixture.ExampleAlias{}, fixture.Make() }
