package httpserv

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"taccc/internal/obs"
)

// Sample is one parsed exposition line: a metric name, its label set
// (empty when unlabelled) and the sample value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses the Prometheus text exposition format (version 0.0.4)
// as produced by WriteMetrics: `# TYPE`/`# HELP` comments, blank lines,
// and `name[{labels}] value` samples. It exists so tests and tactop can
// consume /metrics without a Prometheus dependency, and it is strict:
// any malformed line is an error, which is what makes it useful as a
// validity check in tests.
func ParseText(r io.Reader) ([]Sample, error) {
	var samples []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		end := labelSetEnd(rest)
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; WriteMetrics never emits one but
	// accepting it keeps the parser honest about the format.
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", rest)
	}
	s.Value = v
	return s, nil
}

// labelSetEnd returns the index of the '}' that closes the label set
// rest opens, or -1. A '}' inside a quoted label value, which may hold
// escaped quotes, does not close it.
func labelSetEnd(rest string) int {
	quoted := false
	for i := 1; i < len(rest); i++ {
		switch c := rest[i]; {
		case quoted && c == '\\':
			i++
		case c == '"':
			quoted = !quoted
		case c == '}' && !quoted:
			return i
		}
	}
	return -1
}

func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return nil, fmt.Errorf("label without value: %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		rest := body[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("unquoted label value after %q", name)
		}
		val, tail, err := unquoteLabel(rest)
		if err != nil {
			return nil, err
		}
		labels[name] = val
		body = strings.TrimPrefix(strings.TrimSpace(tail), ",")
		body = strings.TrimSpace(body)
	}
	return labels, nil
}

func unquoteLabel(s string) (val, tail string, err error) {
	// s starts with the opening quote; find the closing one honouring \" escapes.
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			v, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", fmt.Errorf("bad label value %q", s[:i+1])
			}
			return v, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label value %q", s)
}

// HistogramFrom reassembles the histogram family name (its raw
// Prometheus name, e.g. "cluster_latency_ms") from parsed samples into an
// obs.HistogramSnapshot: per-bucket (non-cumulative) counts, bounds,
// sum, count and mean. The second return is false when the family is
// absent or incomplete.
func HistogramFrom(samples []Sample, name string) (obs.HistogramSnapshot, bool) {
	var snap obs.HistogramSnapshot
	type bucket struct {
		le  float64
		cum int64
	}
	var buckets []bucket
	haveSum, haveCount := false, false
	for _, s := range samples {
		switch s.Name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				return snap, false
			}
			buckets = append(buckets, bucket{le: le, cum: int64(s.Value)})
		case name + "_sum":
			snap.Sum = s.Value
			haveSum = true
		case name + "_count":
			snap.Count = int64(s.Value)
			haveCount = true
		}
	}
	if len(buckets) == 0 || !haveSum || !haveCount {
		return obs.HistogramSnapshot{}, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	prev := int64(0)
	for _, b := range buckets {
		if !math.IsInf(b.le, 1) {
			snap.Bounds = append(snap.Bounds, b.le)
		}
		snap.Counts = append(snap.Counts, b.cum-prev)
		prev = b.cum
	}
	if snap.Count > 0 {
		snap.Mean = snap.Sum / float64(snap.Count)
	}
	return snap, true
}
