// The benchmark is a module of its own so that it builds from the files
// under benchmark/ plus the engine it measures, and so that the root
// module's `go build ./...` and `go test ./...` never compile it. The
// module path keeps the `expdb/` prefix: that is what lets it import the
// engine's internal packages and time each layer's exported calls.
module expdb/benchmark

go 1.22

require expdb v0.0.0

replace expdb => ../
