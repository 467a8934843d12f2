module mdagent/benchmark

go 1.23

require mdagent v0.0.0

replace mdagent => ../
