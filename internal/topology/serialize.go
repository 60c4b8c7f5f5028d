package topology

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// graphJSON is the wire format for Graph.
type graphJSON struct {
	Nodes []nodeJSON `json:"nodes"`
	Links []linkJSON `json:"links"`
}

type nodeJSON struct {
	Kind string  `json:"kind"`
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

type linkJSON struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	LatencyMs float64 `json:"latency_ms"`
	Bandwidth float64 `json:"bandwidth_mbps"`
}

// WriteJSON serializes the graph. Node order and link order are stable so
// output is byte-for-byte reproducible.
func (g *Graph) WriteJSON(w io.Writer) error {
	var gj graphJSON
	for _, n := range g.nodes {
		gj.Nodes = append(gj.Nodes, nodeJSON{Kind: n.Kind.String(), Name: n.Name, X: n.X, Y: n.Y})
	}
	links := g.Links()
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	for _, l := range links {
		gj.Links = append(gj.Links, linkJSON{
			A: g.nodes[l.A].Name, B: g.nodes[l.B].Name,
			LatencyMs: l.LatencyMs, Bandwidth: l.BandwidthMbps,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(gj)
}

// WriteDOT emits a Graphviz representation for visual inspection. Nodes are
// colored by kind; link labels carry latency.
func (g *Graph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("graph topology {\n")
	b.WriteString("  layout=neato;\n  overlap=false;\n")
	for _, n := range g.nodes {
		color := map[NodeKind]string{
			KindIoT: "lightblue", KindGateway: "orange", KindRouter: "gray",
			KindEdge: "green", KindCloud: "purple",
		}[n.Kind]
		fmt.Fprintf(&b, "  %q [style=filled, fillcolor=%s, pos=\"%.1f,%.1f\"];\n",
			n.Name, color, n.X/100, n.Y/100)
	}
	for _, l := range g.Links() {
		fmt.Fprintf(&b, "  %q -- %q [label=\"%.2fms\"];\n",
			g.nodes[l.A].Name, g.nodes[l.B].Name, l.LatencyMs)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
