package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// SARIF output lets CI surface taclint findings as code annotations:
// GitHub's upload-sarif action turns each result into a PR annotation at
// the flagged line. The writer emits the minimal valid slice of SARIF
// 2.1.0 — one run, one tool, rule metadata for every analyzer, one
// physical location per result. The round-trip test reads it back
// strictly (unknown fields, missing locations or undeclared rule ids are
// errors), so it pins the schema down instead of trusting it.

// sarifVersion and sarifSchema identify the emitted document.
const (
	sarifVersion = "2.1.0"
	sarifSchema  = "https://json.schemastore.org/sarif-2.1.0.json"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF writes findings as a SARIF 2.1.0 document. The rule table
// carries every analyzer in the suite plus the "allow" pseudo-rule for
// malformed directives, so a clean run still documents what was checked
// and every possible result has a declared ruleId. File URIs are
// slash-separated and relative to dir when possible, the shape GitHub
// needs to anchor annotations in the checkout.
func WriteSARIF(w io.Writer, findings []Finding, dir string) error {
	rules := []sarifRule{{
		ID:               "allow",
		ShortDescription: sarifMessage{Text: "malformed //lint:allow directive"},
	}}
	for _, a := range Analyzers() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	// results must be a JSON array even when empty: GitHub rejects null.
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		uri := f.Pos.Filename
		if dir != "" {
			if rel, ok := strings.CutPrefix(uri, dir+string(filepath.Separator)); ok {
				uri = rel
			} else if rel, ok := strings.CutPrefix(uri, dir+"/"); ok {
				uri = rel
			}
		}
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(uri)},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}

	doc := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "taclint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
