package topology

import (
	"fmt"
	"strconv"

	"taccc/internal/xrand"
)

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	c.nodes = make([]Node, len(g.nodes))
	copy(c.nodes, g.nodes)
	c.adj = make([][]halfLink, len(g.adj))
	for i, hs := range g.adj {
		c.adj[i] = make([]halfLink, len(hs))
		copy(c.adj[i], hs)
	}
	for name, id := range g.byName {
		c.byName[name] = id
	}
	c.links = g.links
	return c
}

// HierarchicalInfra builds the infrastructure of a Hierarchical topology
// (routers, gateways, edge servers) without any IoT devices, for scenarios
// that attach mobile devices epoch by epoch via AttachIoTAt.
func HierarchicalInfra(cfg Config) (*Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.NumEdge <= 0 || cfg.NumGateways <= 0 {
		return nil, fmt.Errorf("topology: infra needs NumEdge and NumGateways > 0, got %d, %d", cfg.NumEdge, cfg.NumGateways)
	}
	if err := validArea(cfg.AreaMeters); err != nil {
		return nil, err
	}
	if err := cfg.Links.validate(); err != nil {
		return nil, err
	}
	if cfg.NumRouters <= 0 {
		cfg.NumRouters = cfg.NumEdge
	}
	src := xrand.NewSplit(cfg.Seed, "hierarchical-infra")
	g := NewGraph()
	routers := make([]NodeID, cfg.NumRouters)
	for r := range routers {
		routers[r] = g.MustAddNode(KindRouter, fmt.Sprintf("router-%d", r),
			src.Uniform(0, cfg.AreaMeters), src.Uniform(0, cfg.AreaMeters))
		if r > 0 {
			parent := routers[src.Intn(r)]
			g.MustAddLink(routers[r], parent, cfg.Links.wired(g, routers[r], parent), cfg.Links.WiredBandwidthMbps)
		}
	}
	near := newNearestGrid(g, routers)
	for gw := 0; gw < cfg.NumGateways; gw++ {
		id := g.MustAddNode(KindGateway, fmt.Sprintf("gw-%d", gw),
			src.Uniform(0, cfg.AreaMeters), src.Uniform(0, cfg.AreaMeters))
		best := near.nearest(id)
		g.MustAddLink(id, best, cfg.Links.wired(g, id, best), cfg.Links.WiredBandwidthMbps)
	}
	placeEdges(g, cfg, routers, src)
	if !g.Connected() {
		return nil, fmt.Errorf("topology: generated infrastructure not connected")
	}
	return g, nil
}

// AttachIoTAt adds one IoT node per coordinate pair, each wired to its
// nearest gateway with a wireless link. Names are iot-0..iot-(k-1); the
// graph must not already contain IoT nodes with those names. A NaN or
// infinite coordinate, or a link parameter that is not finite and
// non-negative, is an error, reported before the graph is touched.
func AttachIoTAt(g *Graph, xs, ys []float64, links LinkParams, seed int64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("topology: AttachIoTAt got %d xs and %d ys", len(xs), len(ys))
	}
	for i := range xs {
		if !finitePoint(xs[i], ys[i]) {
			return fmt.Errorf("topology: AttachIoTAt device %d has non-finite coordinates (%v, %v)", i, xs[i], ys[i])
		}
	}
	gateways := g.NodesOfKind(KindGateway)
	if len(gateways) == 0 {
		return fmt.Errorf("topology: AttachIoTAt on a graph with no gateways")
	}
	if (links == LinkParams{}) {
		links = DefaultLinkParams()
	}
	if err := links.validate(); err != nil {
		return err
	}
	near := newNearestGrid(g, gateways)
	src := xrand.NewSplit(seed, "attach-iot")
	g.reserve(len(xs))
	for i := range xs {
		id, err := g.AddNode(KindIoT, "iot-"+strconv.Itoa(i), xs[i], ys[i])
		if err != nil {
			return err
		}
		if err := g.AddLink(id, near.nearest(id), links.wireless(src), links.WirelessBandwidthMbps); err != nil {
			return err
		}
	}
	return nil
}
