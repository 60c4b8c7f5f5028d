package topology

import (
	"fmt"
	"math"
	"strconv"

	"taccc/internal/xrand"
)

// LinkParams controls how generators assign latency and bandwidth to the
// links they create. All latencies are milliseconds, bandwidths Mbit/s.
type LinkParams struct {
	// WiredBaseMs is the fixed per-hop latency of wired links.
	WiredBaseMs float64
	// WiredPerKmMs adds distance-proportional propagation delay.
	WiredPerKmMs float64
	// WirelessBaseMs is the fixed latency of the IoT-to-gateway hop.
	WirelessBaseMs float64
	// WirelessJitterMs adds a uniform [0, jitter) term per wireless link,
	// modeling interference and contention differences between devices.
	WirelessJitterMs float64
	// WiredBandwidthMbps and WirelessBandwidthMbps set link capacities.
	WiredBandwidthMbps    float64
	WirelessBandwidthMbps float64
}

// DefaultLinkParams returns parameters typical of a metropolitan edge
// deployment: sub-millisecond wired hops, a few milliseconds of wireless
// access latency.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		WiredBaseMs:           0.5,
		WiredPerKmMs:          0.005,
		WirelessBaseMs:        2.0,
		WirelessJitterMs:      2.0,
		WiredBandwidthMbps:    1000,
		WirelessBandwidthMbps: 50,
	}
}

// validate rejects link parameters that would give a link a negative,
// NaN or infinite latency or bandwidth: every field must be finite and
// non-negative. An infinite field would also turn a zero-length wired
// link's delay into NaN (+Inf × 0).
func (p LinkParams) validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"WiredBaseMs", p.WiredBaseMs},
		{"WiredPerKmMs", p.WiredPerKmMs},
		{"WirelessBaseMs", p.WirelessBaseMs},
		{"WirelessJitterMs", p.WirelessJitterMs},
		{"WiredBandwidthMbps", p.WiredBandwidthMbps},
		{"WirelessBandwidthMbps", p.WirelessBandwidthMbps},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("topology: LinkParams.%s must be finite and >= 0, got %v", f.name, f.v)
		}
	}
	return nil
}

func (p LinkParams) wired(g *Graph, a, b NodeID) float64 {
	return p.WiredBaseMs + p.WiredPerKmMs*g.Dist(a, b)/1000
}

func (p LinkParams) wireless(src *xrand.Source) float64 {
	return p.WirelessBaseMs + src.Float64()*p.WirelessJitterMs
}

// Config captures the sizing shared by all generators.
type Config struct {
	// NumIoT, NumEdge, NumGateways, NumRouters size the deployment.
	// Generators that do not use routers ignore NumRouters.
	NumIoT      int
	NumEdge     int
	NumGateways int
	NumRouters  int
	// AreaMeters is the side of the square deployment region.
	AreaMeters float64
	// Links controls latency/bandwidth assignment; the zero value is
	// replaced by DefaultLinkParams.
	Links LinkParams
	// Seed drives all randomness; equal configs produce equal graphs.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.AreaMeters == 0 {
		c.AreaMeters = 5000
	}
	if (c.Links == LinkParams{}) {
		c.Links = DefaultLinkParams()
	}
	return c
}

func (c Config) validate() error {
	if c.NumIoT <= 0 {
		return fmt.Errorf("topology: config needs NumIoT > 0, got %d", c.NumIoT)
	}
	if c.NumEdge <= 0 {
		return fmt.Errorf("topology: config needs NumEdge > 0, got %d", c.NumEdge)
	}
	if c.NumGateways <= 0 {
		return fmt.Errorf("topology: config needs NumGateways > 0, got %d", c.NumGateways)
	}
	if err := validArea(c.AreaMeters); err != nil {
		return err
	}
	return c.Links.validate()
}

// validArea rejects a deployment side that is not a positive finite
// length: a NaN or infinite area would place nodes at non-finite
// coordinates.
func validArea(area float64) error {
	if !(area > 0) || math.IsInf(area, 1) {
		return fmt.Errorf("topology: config needs a finite AreaMeters > 0, got %v", area)
	}
	return nil
}

// Placement selects how IoT devices are scattered over the area.
type Placement int

// Placement strategies.
const (
	// PlaceUniform scatters devices uniformly at random.
	PlaceUniform Placement = iota + 1
	// PlaceHotspot concentrates devices around a few Gaussian hotspots,
	// modeling crowds/intersections.
	PlaceHotspot
)

// attachIoT places cfg.NumIoT devices and links each to its nearest
// gateway with a wireless link. Placement is uniform or hotspot-clustered.
func attachIoT(g *Graph, cfg Config, place Placement, src *xrand.Source) {
	gateways := g.NodesOfKind(KindGateway)
	near := newNearestGrid(g, gateways)
	var hotspots [][2]float64
	if place == PlaceHotspot {
		k := len(gateways)/3 + 1
		for h := 0; h < k; h++ {
			hotspots = append(hotspots, [2]float64{
				src.Uniform(0, cfg.AreaMeters), src.Uniform(0, cfg.AreaMeters),
			})
		}
	}
	g.reserve(cfg.NumIoT)
	for i := 0; i < cfg.NumIoT; i++ {
		var x, y float64
		switch place {
		case PlaceHotspot:
			h := hotspots[src.Intn(len(hotspots))]
			sigma := cfg.AreaMeters / 20
			x = clamp(src.Normal(h[0], sigma), 0, cfg.AreaMeters)
			y = clamp(src.Normal(h[1], sigma), 0, cfg.AreaMeters)
		default:
			x = src.Uniform(0, cfg.AreaMeters)
			y = src.Uniform(0, cfg.AreaMeters)
		}
		id := g.MustAddNode(KindIoT, "iot-"+strconv.Itoa(i), x, y)
		g.MustAddLink(id, near.nearest(id), cfg.Links.wireless(src), cfg.Links.WirelessBandwidthMbps)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// connectInfra makes an infrastructure node set connected by adding
// minimum-distance links between components (a lightweight MST repair).
func connectInfra(g *Graph, cfg Config, ids []NodeID) {
	if len(ids) == 0 {
		return
	}
	comp := components(g, ids)
	for len(comp) > 1 {
		// Join the first component to its nearest other component.
		bestA, bestB := NodeID(-1), NodeID(-1)
		bestD := math.Inf(1)
		for _, a := range comp[0] {
			for _, other := range comp[1:] {
				for _, b := range other {
					if d := g.Dist(a, b); d < bestD {
						bestA, bestB, bestD = a, b, d
					}
				}
			}
		}
		g.MustAddLink(bestA, bestB, cfg.Links.wired(g, bestA, bestB), cfg.Links.WiredBandwidthMbps)
		comp = components(g, ids)
	}
}

// components returns the connected components of the subgraph induced by
// ids, as slices of node IDs.
func components(g *Graph, ids []NodeID) [][]NodeID {
	inSet := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		inSet[id] = true
	}
	seen := make(map[NodeID]bool, len(ids))
	var out [][]NodeID
	for _, start := range ids {
		if seen[start] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{start}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.Neighbors(u) {
				if inSet[v] && !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

// placeEdges co-locates edge servers with a subset of infrastructure nodes
// (gateways or routers), attaching each with a short wired link.
func placeEdges(g *Graph, cfg Config, hosts []NodeID, src *xrand.Source) {
	if len(hosts) == 0 {
		panic("topology: placeEdges with no hosts")
	}
	perm := src.Perm(len(hosts))
	for e := 0; e < cfg.NumEdge; e++ {
		host := hosts[perm[e%len(hosts)]]
		hn := g.Node(host)
		id := g.MustAddNode(KindEdge, fmt.Sprintf("edge-%d", e), hn.X, hn.Y)
		g.MustAddLink(id, host, cfg.Links.WiredBaseMs/2, cfg.Links.WiredBandwidthMbps)
	}
}

// Hierarchical builds the canonical edge deployment: a tree of routers with
// an optional cloud root, gateways hanging off routers, edge servers
// co-located with routers, and IoT devices attached to their nearest
// gateway. This is the default topology for all experiments.
func Hierarchical(cfg Config, place Placement) (*Graph, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.NumRouters <= 0 {
		cfg.NumRouters = cfg.NumEdge
	}
	src := xrand.NewSplit(cfg.Seed, "hierarchical")
	g := NewGraph()

	routers := make([]NodeID, cfg.NumRouters)
	for r := range routers {
		routers[r] = g.MustAddNode(KindRouter, fmt.Sprintf("router-%d", r),
			src.Uniform(0, cfg.AreaMeters), src.Uniform(0, cfg.AreaMeters))
		if r > 0 {
			// Random-tree backbone: attach to a uniformly chosen
			// earlier router.
			parent := routers[src.Intn(r)]
			g.MustAddLink(routers[r], parent, cfg.Links.wired(g, routers[r], parent), cfg.Links.WiredBandwidthMbps)
		}
	}
	near := newNearestGrid(g, routers)
	for gw := 0; gw < cfg.NumGateways; gw++ {
		id := g.MustAddNode(KindGateway, fmt.Sprintf("gw-%d", gw),
			src.Uniform(0, cfg.AreaMeters), src.Uniform(0, cfg.AreaMeters))
		// Attach to the nearest router.
		best := near.nearest(id)
		g.MustAddLink(id, best, cfg.Links.wired(g, id, best), cfg.Links.WiredBandwidthMbps)
	}
	placeEdges(g, cfg, routers, src)
	attachIoT(g, cfg, place, src)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// RandomGeometric places gateways uniformly in the plane and connects pairs
// within the given radius, repairing connectivity with shortest bridging
// links. Edge servers are co-located with random gateways.
func RandomGeometric(cfg Config, radiusMeters float64, place Placement) (*Graph, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if radiusMeters <= 0 {
		return nil, fmt.Errorf("topology: RandomGeometric needs radius > 0, got %v", radiusMeters)
	}
	src := xrand.NewSplit(cfg.Seed, "geometric")
	g := NewGraph()
	gws := make([]NodeID, cfg.NumGateways)
	for i := range gws {
		gws[i] = g.MustAddNode(KindGateway, fmt.Sprintf("gw-%d", i),
			src.Uniform(0, cfg.AreaMeters), src.Uniform(0, cfg.AreaMeters))
	}
	for i := 0; i < len(gws); i++ {
		for j := i + 1; j < len(gws); j++ {
			if g.Dist(gws[i], gws[j]) <= radiusMeters {
				g.MustAddLink(gws[i], gws[j], cfg.Links.wired(g, gws[i], gws[j]), cfg.Links.WiredBandwidthMbps)
			}
		}
	}
	connectInfra(g, cfg, gws)
	placeEdges(g, cfg, gws, src)
	attachIoT(g, cfg, place, src)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Waxman connects gateway pairs with probability
// alpha * exp(-d / (beta * L)) where L is the maximum pairwise distance —
// the classic Waxman random-topology model — then repairs connectivity.
func Waxman(cfg Config, alpha, beta float64, place Placement) (*Graph, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("topology: Waxman parameters must be in (0,1], got alpha=%v beta=%v", alpha, beta)
	}
	src := xrand.NewSplit(cfg.Seed, "waxman")
	g := NewGraph()
	gws := make([]NodeID, cfg.NumGateways)
	for i := range gws {
		gws[i] = g.MustAddNode(KindGateway, fmt.Sprintf("gw-%d", i),
			src.Uniform(0, cfg.AreaMeters), src.Uniform(0, cfg.AreaMeters))
	}
	maxD := 0.0
	for i := 0; i < len(gws); i++ {
		for j := i + 1; j < len(gws); j++ {
			if d := g.Dist(gws[i], gws[j]); d > maxD {
				maxD = d
			}
		}
	}
	if maxD == 0 {
		maxD = 1
	}
	for i := 0; i < len(gws); i++ {
		for j := i + 1; j < len(gws); j++ {
			p := alpha * math.Exp(-g.Dist(gws[i], gws[j])/(beta*maxD))
			if src.Bernoulli(p) {
				g.MustAddLink(gws[i], gws[j], cfg.Links.wired(g, gws[i], gws[j]), cfg.Links.WiredBandwidthMbps)
			}
		}
	}
	connectInfra(g, cfg, gws)
	placeEdges(g, cfg, gws, src)
	attachIoT(g, cfg, place, src)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// BarabasiAlbert grows a preferential-attachment gateway backbone: each new
// gateway links to attach existing gateways chosen proportionally to their
// degree. Produces the heavy-tailed degree distributions seen in ISP-like
// aggregation networks.
func BarabasiAlbert(cfg Config, attach int, place Placement) (*Graph, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if attach <= 0 {
		return nil, fmt.Errorf("topology: BarabasiAlbert needs attach > 0, got %d", attach)
	}
	if cfg.NumGateways < attach+1 {
		return nil, fmt.Errorf("topology: BarabasiAlbert needs NumGateways > attach, got %d <= %d", cfg.NumGateways, attach)
	}
	src := xrand.NewSplit(cfg.Seed, "ba")
	g := NewGraph()
	gws := make([]NodeID, cfg.NumGateways)
	for i := range gws {
		gws[i] = g.MustAddNode(KindGateway, fmt.Sprintf("gw-%d", i),
			src.Uniform(0, cfg.AreaMeters), src.Uniform(0, cfg.AreaMeters))
	}
	// Seed clique over the first attach+1 gateways.
	for i := 0; i <= attach; i++ {
		for j := i + 1; j <= attach; j++ {
			g.MustAddLink(gws[i], gws[j], cfg.Links.wired(g, gws[i], gws[j]), cfg.Links.WiredBandwidthMbps)
		}
	}
	for i := attach + 1; i < len(gws); i++ {
		weights := make([]float64, i)
		for j := 0; j < i; j++ {
			weights[j] = float64(g.Degree(gws[j]))
		}
		chosen := map[int]bool{}
		for len(chosen) < attach {
			c := src.Choice(weights)
			if chosen[c] {
				continue
			}
			chosen[c] = true
			g.MustAddLink(gws[i], gws[c], cfg.Links.wired(g, gws[i], gws[c]), cfg.Links.WiredBandwidthMbps)
			weights[c] = 0 // avoid re-picking
		}
	}
	placeEdges(g, cfg, gws, src)
	attachIoT(g, cfg, place, src)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Grid lays gateways out on a rows x cols lattice spanning the area, with
// 4-neighbor wired links. Edge servers are spread evenly over lattice
// points. Models planned metro deployments (street-corner cabinets).
func Grid(cfg Config, rows, cols int, place Placement) (*Graph, error) {
	cfg = cfg.withDefaults()
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("topology: Grid needs positive dimensions, got %dx%d", rows, cols)
	}
	cfg.NumGateways = rows * cols
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := xrand.NewSplit(cfg.Seed, "grid")
	g := NewGraph()
	ids := make([][]NodeID, rows)
	for r := 0; r < rows; r++ {
		ids[r] = make([]NodeID, cols)
		for c := 0; c < cols; c++ {
			x := cfg.AreaMeters * (float64(c) + 0.5) / float64(cols)
			y := cfg.AreaMeters * (float64(r) + 0.5) / float64(rows)
			ids[r][c] = g.MustAddNode(KindGateway, fmt.Sprintf("gw-%d-%d", r, c), x, y)
			if r > 0 {
				g.MustAddLink(ids[r][c], ids[r-1][c], cfg.Links.wired(g, ids[r][c], ids[r-1][c]), cfg.Links.WiredBandwidthMbps)
			}
			if c > 0 {
				g.MustAddLink(ids[r][c], ids[r][c-1], cfg.Links.wired(g, ids[r][c], ids[r][c-1]), cfg.Links.WiredBandwidthMbps)
			}
		}
	}
	var flat []NodeID
	for _, row := range ids {
		flat = append(flat, row...)
	}
	// Spread edge servers evenly rather than randomly: planned placement.
	stride := len(flat) / cfg.NumEdge
	if stride == 0 {
		stride = 1
	}
	for e := 0; e < cfg.NumEdge; e++ {
		host := flat[(e*stride)%len(flat)]
		hn := g.Node(host)
		id := g.MustAddNode(KindEdge, fmt.Sprintf("edge-%d", e), hn.X, hn.Y)
		g.MustAddLink(id, host, cfg.Links.WiredBaseMs/2, cfg.Links.WiredBandwidthMbps)
	}
	attachIoT(g, cfg, place, src)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FatTree builds a k-ary fat-tree (k even): (k/2)^2 core routers, k pods of
// k/2 aggregation and k/2 top-of-rack routers. Gateways and edge servers
// hang off ToR routers. Models an edge deployment inside a small
// datacenter-style facility.
func FatTree(cfg Config, k int, place Placement) (*Graph, error) {
	cfg = cfg.withDefaults()
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: FatTree needs even k >= 2, got %d", k)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := xrand.NewSplit(cfg.Seed, "fattree")
	g := NewGraph()
	half := k / 2
	core := make([]NodeID, half*half)
	for i := range core {
		core[i] = g.MustAddNode(KindRouter, fmt.Sprintf("core-%d", i), 0, 0)
	}
	var tors []NodeID
	for pod := 0; pod < k; pod++ {
		agg := make([]NodeID, half)
		for a := range agg {
			agg[a] = g.MustAddNode(KindRouter, fmt.Sprintf("agg-%d-%d", pod, a), 0, 0)
			for c := 0; c < half; c++ {
				g.MustAddLink(agg[a], core[a*half+c], cfg.Links.WiredBaseMs, cfg.Links.WiredBandwidthMbps)
			}
		}
		for t := 0; t < half; t++ {
			tor := g.MustAddNode(KindRouter, fmt.Sprintf("tor-%d-%d", pod, t), 0, 0)
			tors = append(tors, tor)
			for _, a := range agg {
				g.MustAddLink(tor, a, cfg.Links.WiredBaseMs, cfg.Links.WiredBandwidthMbps)
			}
		}
	}
	// Gateways attach to ToRs round-robin; they carry the wireless side.
	for i := 0; i < cfg.NumGateways; i++ {
		tor := tors[i%len(tors)]
		id := g.MustAddNode(KindGateway, fmt.Sprintf("gw-%d", i),
			src.Uniform(0, cfg.AreaMeters), src.Uniform(0, cfg.AreaMeters))
		g.MustAddLink(id, tor, cfg.Links.WiredBaseMs, cfg.Links.WiredBandwidthMbps)
	}
	placeEdges(g, cfg, tors, src)
	attachIoT(g, cfg, place, src)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Star attaches every gateway and every edge server to one central router;
// the degenerate single-hop cluster used as a sanity-check family.
func Star(cfg Config, place Placement) (*Graph, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := xrand.NewSplit(cfg.Seed, "star")
	g := NewGraph()
	center := g.MustAddNode(KindRouter, "hub", cfg.AreaMeters/2, cfg.AreaMeters/2)
	for i := 0; i < cfg.NumGateways; i++ {
		id := g.MustAddNode(KindGateway, fmt.Sprintf("gw-%d", i),
			src.Uniform(0, cfg.AreaMeters), src.Uniform(0, cfg.AreaMeters))
		g.MustAddLink(id, center, cfg.Links.wired(g, id, center), cfg.Links.WiredBandwidthMbps)
	}
	placeEdges(g, cfg, []NodeID{center}, src)
	attachIoT(g, cfg, place, src)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Ring arranges gateways in a cycle (metro fiber ring) with edge servers on
// evenly spaced ring positions.
func Ring(cfg Config, place Placement) (*Graph, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.NumGateways < 3 {
		return nil, fmt.Errorf("topology: Ring needs at least 3 gateways, got %d", cfg.NumGateways)
	}
	src := xrand.NewSplit(cfg.Seed, "ring")
	g := NewGraph()
	gws := make([]NodeID, cfg.NumGateways)
	r := cfg.AreaMeters / 2 * 0.8
	cx, cy := cfg.AreaMeters/2, cfg.AreaMeters/2
	for i := range gws {
		theta := 2 * math.Pi * float64(i) / float64(cfg.NumGateways)
		gws[i] = g.MustAddNode(KindGateway, fmt.Sprintf("gw-%d", i),
			cx+r*math.Cos(theta), cy+r*math.Sin(theta))
		if i > 0 {
			g.MustAddLink(gws[i], gws[i-1], cfg.Links.wired(g, gws[i], gws[i-1]), cfg.Links.WiredBandwidthMbps)
		}
	}
	g.MustAddLink(gws[len(gws)-1], gws[0], cfg.Links.wired(g, gws[len(gws)-1], gws[0]), cfg.Links.WiredBandwidthMbps)
	// Evenly spaced edge hosts around the ring.
	stride := len(gws) / cfg.NumEdge
	if stride == 0 {
		stride = 1
	}
	for e := 0; e < cfg.NumEdge; e++ {
		host := gws[(e*stride)%len(gws)]
		hn := g.Node(host)
		id := g.MustAddNode(KindEdge, fmt.Sprintf("edge-%d", e), hn.X, hn.Y)
		g.MustAddLink(id, host, cfg.Links.WiredBaseMs/2, cfg.Links.WiredBandwidthMbps)
	}
	attachIoT(g, cfg, place, src)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Family names a generator so experiment sweeps can iterate over topology
// families generically.
type Family string

// Topology families available to sweeps.
const (
	FamilyHierarchical Family = "hierarchical"
	FamilyGeometric    Family = "geometric"
	FamilyWaxman       Family = "waxman"
	FamilyBA           Family = "barabasi-albert"
	FamilyGrid         Family = "grid"
	FamilyFatTree      Family = "fattree"
	FamilyStar         Family = "star"
	FamilyRing         Family = "ring"
)

// Families returns all families in stable order.
func Families() []Family {
	return []Family{
		FamilyHierarchical, FamilyGeometric, FamilyWaxman, FamilyBA,
		FamilyGrid, FamilyFatTree, FamilyStar, FamilyRing,
	}
}

// Generate builds a topology of the named family with reasonable
// family-specific defaults derived from cfg.
func Generate(family Family, cfg Config, place Placement) (*Graph, error) {
	cfg = cfg.withDefaults()
	switch family {
	case FamilyHierarchical:
		return Hierarchical(cfg, place)
	case FamilyGeometric:
		return RandomGeometric(cfg, cfg.AreaMeters/3, place)
	case FamilyWaxman:
		return Waxman(cfg, 0.8, 0.3, place)
	case FamilyBA:
		attach := 2
		if cfg.NumGateways <= attach {
			attach = 1
		}
		return BarabasiAlbert(cfg, attach, place)
	case FamilyGrid:
		side := int(math.Ceil(math.Sqrt(float64(cfg.NumGateways))))
		return Grid(cfg, side, side, place)
	case FamilyFatTree:
		return FatTree(cfg, 4, place)
	case FamilyStar:
		return Star(cfg, place)
	case FamilyRing:
		if cfg.NumGateways < 3 {
			cfg.NumGateways = 3
		}
		return Ring(cfg, place)
	default:
		return nil, fmt.Errorf("topology: unknown family %q", family)
	}
}
