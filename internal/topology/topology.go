// Package topology models the edge-computing network substrate: a weighted
// graph whose nodes are IoT devices, wireless gateways, routers, edge
// servers and (optionally) a cloud datacenter, and whose links carry a
// latency/bandwidth cost. It provides generators for common deployment
// shapes, shortest-path routines, and the IoT-to-edge delay matrices that
// the assignment algorithms in internal/assign consume.
//
// The package is deliberately self-contained: delays are plain float64
// milliseconds so instances can be serialized, diffed and replayed without
// any unit ambiguity.
package topology

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
)

// NodeKind classifies the role a node plays in the deployment.
type NodeKind int

// Node kinds, ordered roughly from the network edge inward.
const (
	// KindIoT is a sensor/actuator device that must be assigned to an
	// edge server.
	KindIoT NodeKind = iota + 1
	// KindGateway is a wireless access point/base station that IoT
	// devices attach to.
	KindGateway
	// KindRouter is an interior switch/router.
	KindRouter
	// KindEdge is an edge server capable of hosting IoT workloads.
	KindEdge
	// KindCloud is a remote datacenter (high capacity, high delay).
	KindCloud
)

// String returns the lowercase name of the kind.
func (k NodeKind) String() string {
	switch k {
	case KindIoT:
		return "iot"
	case KindGateway:
		return "gateway"
	case KindRouter:
		return "router"
	case KindEdge:
		return "edge"
	case KindCloud:
		return "cloud"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// NodeID identifies a node within a Graph. IDs are dense indices assigned
// in insertion order.
type NodeID int

// Node is a vertex of the topology graph.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Name is a human-readable label, unique within a graph.
	Name string
	// X, Y are planar coordinates (meters) used by geometric generators
	// and by the propagation-delay model. Zero for non-geometric graphs.
	X, Y float64
}

// Link is an undirected edge with a fixed one-way latency (ms) and a
// bandwidth (Mbit/s) used for transmission-delay computation.
type Link struct {
	A, B NodeID
	// LatencyMs is the one-way propagation+processing latency.
	LatencyMs float64
	// BandwidthMbps is the link capacity; 0 means "unspecified" and
	// transmission delay is treated as zero on this link.
	BandwidthMbps float64
}

// Graph is an undirected multigraph-free network topology. Construct with
// NewGraph and mutate through AddNode/AddLink.
type Graph struct {
	nodes []Node
	// adj[u] lists the incident links of u (stored once per direction).
	adj    [][]halfLink
	byName map[string]NodeID
	links  int
}

// halfLink is the adjacency-list view of a Link from one endpoint.
type halfLink struct {
	to        NodeID
	latencyMs float64
	bwMbps    float64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{byName: make(map[string]NodeID)}
}

// AddNode appends a node and returns its ID. The name must be unique and
// non-empty.
func (g *Graph) AddNode(kind NodeKind, name string, x, y float64) (NodeID, error) {
	if name == "" {
		return 0, errors.New("topology: node name must be non-empty")
	}
	if _, dup := g.byName[name]; dup {
		return 0, fmt.Errorf("topology: duplicate node name %q", name)
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Name: name, X: x, Y: y})
	g.adj = append(g.adj, nil)
	g.byName[name] = id
	return id, nil
}

// reserve sizes the node, adjacency and name tables for n more nodes, so
// a generator that adds a known number of devices grows none of them one
// node at a time.
func (g *Graph) reserve(n int) {
	g.nodes = slices.Grow(g.nodes, n)
	g.adj = slices.Grow(g.adj, n)
	byName := make(map[string]NodeID, len(g.byName)+n)
	maps.Copy(byName, g.byName)
	g.byName = byName
}

// MustAddNode is AddNode that panics on error; for use by generators with
// programmatically unique names.
func (g *Graph) MustAddNode(kind NodeKind, name string, x, y float64) NodeID {
	id, err := g.AddNode(kind, name, x, y)
	if err != nil {
		panic(err)
	}
	return id
}

// AddLink connects a and b with the given one-way latency and bandwidth.
// Self-loops, unknown endpoints, negative latency and duplicate links are
// rejected.
func (g *Graph) AddLink(a, b NodeID, latencyMs, bandwidthMbps float64) error {
	if !g.valid(a) || !g.valid(b) {
		return fmt.Errorf("topology: link endpoints %d-%d out of range", a, b)
	}
	if a == b {
		return fmt.Errorf("topology: self-loop on node %d", a)
	}
	if latencyMs < 0 || math.IsNaN(latencyMs) {
		return fmt.Errorf("topology: invalid latency %v on link %d-%d", latencyMs, a, b)
	}
	if bandwidthMbps < 0 || math.IsNaN(bandwidthMbps) {
		return fmt.Errorf("topology: invalid bandwidth %v on link %d-%d", bandwidthMbps, a, b)
	}
	for _, h := range g.adj[a] {
		if h.to == b {
			return fmt.Errorf("topology: duplicate link %d-%d", a, b)
		}
	}
	g.adj[a] = append(g.adj[a], halfLink{to: b, latencyMs: latencyMs, bwMbps: bandwidthMbps})
	g.adj[b] = append(g.adj[b], halfLink{to: a, latencyMs: latencyMs, bwMbps: bandwidthMbps})
	g.links++
	return nil
}

// MustAddLink is AddLink that panics on error.
func (g *Graph) MustAddLink(a, b NodeID, latencyMs, bandwidthMbps float64) {
	if err := g.AddLink(a, b, latencyMs, bandwidthMbps); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of undirected links.
func (g *Graph) NumLinks() int { return g.links }

// Node returns the node with the given ID. It panics for out-of-range IDs.
func (g *Graph) Node(id NodeID) Node {
	if !g.valid(id) {
		panic(fmt.Sprintf("topology: node %d out of range", id))
	}
	return g.nodes[id]
}

// Nodes returns a copy of all nodes in ID order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// NodesOfKind returns the IDs of all nodes of the given kind, in ID order.
func (g *Graph) NodesOfKind(kind NodeKind) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == kind {
			out = append(out, n.ID)
		}
	}
	return out
}

// Links returns a copy of all links, each reported once with A < B.
func (g *Graph) Links() []Link {
	out := make([]Link, 0, g.links)
	for u, hs := range g.adj {
		for _, h := range hs {
			if NodeID(u) < h.to {
				out = append(out, Link{A: NodeID(u), B: h.to, LatencyMs: h.latencyMs, BandwidthMbps: h.bwMbps})
			}
		}
	}
	return out
}

// Neighbors returns the IDs adjacent to id, in insertion order.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	if !g.valid(id) {
		panic(fmt.Sprintf("topology: node %d out of range", id))
	}
	out := make([]NodeID, len(g.adj[id]))
	for i, h := range g.adj[id] {
		out[i] = h.to
	}
	return out
}

// Degree returns the number of links incident to id.
func (g *Graph) Degree(id NodeID) int {
	if !g.valid(id) {
		panic(fmt.Sprintf("topology: node %d out of range", id))
	}
	return len(g.adj[id])
}

// LinkBetween returns the link joining a and b, if any.
func (g *Graph) LinkBetween(a, b NodeID) (Link, bool) {
	if !g.valid(a) || !g.valid(b) {
		return Link{}, false
	}
	for _, h := range g.adj[a] {
		if h.to == b {
			return Link{A: a, B: b, LatencyMs: h.latencyMs, BandwidthMbps: h.bwMbps}, true
		}
	}
	return Link{}, false
}

// Connected reports whether every node is reachable from node 0. An empty
// graph is considered connected.
func (g *Graph) Connected() bool {
	return len(g.nodes) == 0 || !slices.Contains(g.hops([]NodeID{0}, -1), -1)
}

// Validate checks structural invariants that generators must uphold: a
// connected graph with at least one IoT and one edge node.
func (g *Graph) Validate() error {
	if !g.hasKind(KindIoT) {
		return errors.New("topology: graph has no IoT nodes")
	}
	if !g.hasKind(KindEdge) {
		return errors.New("topology: graph has no edge nodes")
	}
	if !g.Connected() {
		return errors.New("topology: graph is not connected")
	}
	return nil
}

// hasKind reports whether some node is of the given kind.
func (g *Graph) hasKind(kind NodeKind) bool {
	return slices.ContainsFunc(g.nodes, func(n Node) bool { return n.Kind == kind })
}

// Dist returns the Euclidean distance in meters between two nodes'
// coordinates.
func (g *Graph) Dist(a, b NodeID) float64 {
	na, nb := g.Node(a), g.Node(b)
	dx, dy := na.X-nb.X, na.Y-nb.Y
	return math.Hypot(dx, dy)
}
