// The benchmark is a module of its own so that it builds from its own
// directory and the repository's ./... patterns leave it out. The
// module path keeps the vcgraph/ prefix, which is what lets it import
// vcgraph/internal/...; the replace points at the checkout it sits in.
module vcgraph/benchmark

go 1.22

require vcgraph v0.0.0

replace vcgraph => ../
