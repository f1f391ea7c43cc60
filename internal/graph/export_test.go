package graph

// The reference routers of reference_test.go, for the instance-level
// oracle in package graph_test (oracle_test.go), which routes whole
// instances through internal/traffic.

type RefTree = refTree

func RefShortestPathTree(g *Graph, src NodeID) *RefTree { return g.refTree(src, nil) }

func RefKShortestPaths(g *Graph, src, dst NodeID, k int) []Path {
	return g.refKShortestPaths(src, dst, k)
}
