// Command bench is a nested module that imports the root module's
// internal packages.
package main

import "fixture/internal/lib"

func main() { lib.BenchOnly() }
