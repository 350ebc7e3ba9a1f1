// The benchmark is a module of its own so that it builds from its own
// build file and stays out of the root module's `go build ./...` and
// `go test ./...`. Its import path sits under the root module's, which
// is what lets it import the internal packages it decorates.
module github.com/wanify/wanify/bench

go 1.23

require github.com/wanify/wanify v0.0.0

replace github.com/wanify/wanify => ../
