package slo

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseObjectives parses the -slo flag's objective spec: a
// comma-separated list of
//
//	[series.]stat<=threshold[@target]
//
// where series is one of e2e (default), uplink, queue, service,
// downlink; stat is pNN (p95, p99.9), mean, or miss; threshold is
// milliseconds for delay stats and a fraction in [0,1] for miss; and
// target is the compliance percentage of windows (default 99).
//
//	p95<=20@99          p95 e2e delay ≤ 20 ms in 99% of windows
//	uplink.p99<=5       p99 uplink delay ≤ 5 ms in 99% of windows
//	miss<=0.01@95       miss+drop rate ≤ 1% in 95% of windows
//
// Objectives keep spec order; names are derived ("e2e_p95") and
// deduplicated by New.
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		o, err := parseObjective(part)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: empty objective spec")
	}
	return out, nil
}

func parseObjective(part string) (Objective, error) {
	o := Objective{Series: SeriesE2E, Target: 0.99}
	lhs, rest, ok := strings.Cut(part, "<=")
	if !ok {
		return o, fmt.Errorf("slo: objective %q: want [series.]stat<=threshold[@target]", part)
	}
	lhs = strings.TrimSpace(lhs)
	if series, stat, hasSeries := strings.Cut(lhs, "."); hasSeries {
		// "p99.9" has a dot but no valid series prefix; only split when
		// the prefix names a series.
		if s, found := SeriesByName(strings.TrimSpace(series)); found {
			o.Series = s
			lhs = strings.TrimSpace(stat)
		}
	}
	st, err := parseStat(lhs)
	if err != nil {
		return o, fmt.Errorf("slo: objective %q: %v", part, err)
	}
	o.Stat = st
	thresh, target, hasTarget := strings.Cut(rest, "@")
	o.Threshold, err = strconv.ParseFloat(strings.TrimSpace(thresh), 64)
	if err != nil {
		return o, fmt.Errorf("slo: objective %q: bad threshold %q", part, strings.TrimSpace(thresh))
	}
	if hasTarget {
		pct, err := strconv.ParseFloat(strings.TrimSpace(target), 64)
		if err != nil || !(pct > 0 && pct <= 100) {
			return o, fmt.Errorf("slo: objective %q: compliance target %q must be a percentage in (0,100]", part, strings.TrimSpace(target))
		}
		o.Target = pct / 100
	}
	if err := o.validate(); err != nil {
		return o, fmt.Errorf("slo: objective %q: %v", part, err)
	}
	return o, nil
}

func parseStat(s string) (Stat, error) {
	switch s {
	case "mean":
		return StatMean, nil
	case "miss":
		return StatMiss, nil
	}
	if strings.HasPrefix(s, "p") {
		pct, err := strconv.ParseFloat(s[1:], 64)
		if err == nil && pct > 0 && pct < 100 {
			return StatQuantile(pct / 100), nil
		}
	}
	return Stat{}, fmt.Errorf("unknown stat %q (want pNN, mean, or miss)", s)
}
