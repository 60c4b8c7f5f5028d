// Command tacgen generates topology graphs and assignment-problem
// instances for offline experimentation.
//
// Usage:
//
//	tacgen -kind topology -family hierarchical -iot 100 -edge 10 -o topo.json
//	tacgen -kind topology -format dot -o topo.dot
//	tacgen -kind instance -iot 100 -edge 10 -rho 0.7 -o inst.json
//	tacgen -kind synthetic -n 50 -m 5 -class correlated -o inst.json
//	tacgen -kind devices -iot 100 -profile factory -o devices.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	taccc "taccc"
	"taccc/internal/cliutil"
	"taccc/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var families []string
	for _, f := range topology.Families() {
		families = append(families, string(f))
	}
	fs := flag.NewFlagSet("tacgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind    = fs.String("kind", "topology", "what to generate: topology | instance | synthetic | devices")
		family  = fs.String("family", "hierarchical", "topology family ("+strings.Join(families, ", ")+")")
		format  = fs.String("format", "json", "topology output format: json | dot | stats")
		place   = fs.String("place", "uniform", "IoT placement: uniform | hotspot")
		iot     = fs.Int("iot", 100, "number of IoT devices")
		edge    = fs.Int("edge", 10, "number of edge servers")
		gw      = fs.Int("gateways", 0, "number of gateways (default 2x edge)")
		rho     = fs.Float64("rho", 0.7, "capacity tightness in (0,1]")
		payload = fs.Float64("payload", 0, "payload KB for payload-aware delays (0 = latency only)")
		n       = fs.Int("n", 50, "synthetic: devices")
		m       = fs.Int("m", 5, "synthetic: edges")
		class   = fs.String("class", "uniform", "synthetic family: uniform | correlated")
		profile = fs.String("profile", "default", "device profile for -kind devices (default, smartcity, factory, wearables)")
		seed    = fs.Int64("seed", 1, "random seed")
		out     = fs.String("o", "", "output file (default stdout)")
	)
	version := cliutil.VersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		cliutil.FprintVersion(stdout, "tacgen")
		return 0
	}
	// Every enum flag is checked before anything is generated, so a typo
	// is a usage error.
	for _, c := range []struct {
		flag, value string
		valid       []string
	}{
		{"kind", *kind, []string{"topology", "instance", "synthetic", "devices"}},
		{"family", *family, families},
		{"format", *format, []string{"json", "dot", "stats"}},
		{"place", *place, []string{"uniform", "hotspot"}},
		{"class", *class, []string{"uniform", "correlated"}},
		{"profile", *profile, []string{"default", "smartcity", "factory", "wearables"}},
	} {
		if !slices.Contains(c.valid, c.value) {
			fmt.Fprintf(stderr, "tacgen: unknown -%s %q (want %s)\n", c.flag, c.value, strings.Join(c.valid, " | "))
			return 2
		}
	}
	if !(*rho > 0 && *rho <= 1) {
		fmt.Fprintf(stderr, "tacgen: -rho %v must be in (0,1]\n", *rho)
		return 2
	}
	placement := taccc.PlaceUniform
	if *place == "hotspot" {
		placement = taccc.PlaceHotspot
	}
	// With -o, the output is generated into a buffer and written only
	// once generation succeeds, so no error leaves a file behind.
	var buf bytes.Buffer
	w := stdout
	if *out != "" {
		w = &buf
	}

	switch *kind {
	case "topology":
		g, err := taccc.GenerateTopology(taccc.Family(*family), taccc.TopologyConfig{
			NumIoT: *iot, NumEdge: *edge, NumGateways: defaultGw(*gw, *edge), Seed: *seed,
		}, placement)
		if err != nil {
			fmt.Fprintf(stderr, "tacgen: %v\n", err)
			return 1
		}
		switch *format {
		case "json":
			err = g.WriteJSON(w)
		case "dot":
			err = g.WriteDOT(w)
		case "stats":
			m := taccc.ComputeTopologyMetrics(g)
			fmt.Fprintf(w, "family:            %s\n", *family)
			fmt.Fprintf(w, "nodes:             %d (%d links)\n", m.Nodes, m.Links)
			fmt.Fprintf(w, "by kind:           iot=%d gateway=%d router=%d edge=%d\n",
				m.ByKind[taccc.KindIoT], m.ByKind[taccc.KindGateway],
				m.ByKind[taccc.KindRouter], m.ByKind[taccc.KindEdge])
			fmt.Fprintf(w, "degree:            avg %.2f, max %d\n", m.AvgDegree, m.MaxDegree)
			fmt.Fprintf(w, "diameter:          %d hops\n", m.DiameterHops)
			fmt.Fprintf(w, "IoT->nearest edge: avg %.3f ms (max %.3f ms), avg %.1f hops\n",
				m.AvgIoTMinDelayMs, m.MaxIoTMinDelayMs, m.AvgIoTEdgeHops)
		}
		if err != nil {
			fmt.Fprintf(stderr, "tacgen: %v\n", err)
			return 1
		}
	case "instance":
		built, err := taccc.Scenario{
			Family: taccc.Family(*family), Place: placement,
			NumIoT: *iot, NumEdge: *edge, NumGateways: defaultGw(*gw, *edge),
			Rho: *rho, PayloadKB: *payload, Seed: *seed,
		}.Build()
		if err != nil {
			fmt.Fprintf(stderr, "tacgen: %v\n", err)
			return 1
		}
		if err := built.Instance.WriteJSON(w); err != nil {
			fmt.Fprintf(stderr, "tacgen: %v\n", err)
			return 1
		}
	case "synthetic":
		k := taccc.SyntheticUniform
		if *class == "correlated" {
			k = taccc.SyntheticCorrelated
		}
		in, err := taccc.SyntheticInstance(k, *n, *m, *rho, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "tacgen: %v\n", err)
			return 1
		}
		if err := in.WriteJSON(w); err != nil {
			fmt.Fprintf(stderr, "tacgen: %v\n", err)
			return 1
		}
	case "devices":
		devices, err := taccc.GenerateDevices(*iot, taccc.WorkloadProfiles(*seed)[*profile])
		if err != nil {
			fmt.Fprintf(stderr, "tacgen: %v\n", err)
			return 1
		}
		if err := taccc.WriteDevicesJSON(w, devices); err != nil {
			fmt.Fprintf(stderr, "tacgen: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf.Bytes(), 0o666); err != nil {
			fmt.Fprintf(stderr, "tacgen: %v\n", err)
			return 1
		}
	}
	return 0
}

func defaultGw(gw, edge int) int {
	if gw > 0 {
		return gw
	}
	return 2 * edge
}
