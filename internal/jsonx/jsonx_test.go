package jsonx

import (
	"reflect"
	"strings"
	"testing"
)

type inner struct {
	Name  string  `json:"name"`
	Value float64 `json:"value,omitempty"`
}

// doc covers every kind of field Decode walks: tagged and untagged
// fields, a json:"-" field, pointers to a number and to a struct, a
// slice of structs, a map of structs, interface values and a number
// matrix that is skipped.
type doc struct {
	Title    string                 `json:"title"`
	Untagged int                    // member "Untagged"
	Skipped  string                 `json:"-"`
	Dash     int                    `json:"-,"` // member "-"
	Ptr      *float64               `json:"ptr"`
	Child    *inner                 `json:"child"`
	Items    []inner                `json:"items"`
	ByName   map[string]inner       `json:"by_name"`
	Args     map[string]interface{} `json:"args"`
	Any      interface{}            `json:"any"`
	Matrix   [][]float64            `json:"matrix"`
	hidden   int
}

const validDoc = `{
  "title": "a \"quoted\" {title} [with] brackets, and \\ escapes",
  "Untagged": 3,
  "-": 4,
  "ptr": 1.5,
  "child": {"name": "c", "value": 2},
  "items": [{"name": "i0"}, {"name": "i1", "value": -1e3}],
  "by_name": {"x": {"name": "x"}, "y z": {"name": "y"}},
  "args": {"n": 1, "deep": {"a": [1, {"b": null}], "NAME": true}},
  "any": [{"k": "v"}, "{\"k\":1,\"k\":2}", [[]]],
  "matrix": [[1, 2.5e-3], [], [-0, 7]]
}`

func TestDecodeAcceptsEveryFieldKind(t *testing.T) {
	var got doc
	if err := Decode(strings.NewReader(validDoc+" \n\t\r\n"), &got); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	ptr := 1.5
	want := doc{
		Title:    `a "quoted" {title} [with] brackets, and \ escapes`,
		Untagged: 3,
		Dash:     4,
		Ptr:      &ptr,
		Child:    &inner{Name: "c", Value: 2},
		Items:    []inner{{Name: "i0"}, {Name: "i1", Value: -1e3}},
		ByName:   map[string]inner{"x": {Name: "x"}, "y z": {Name: "y"}},
		Args: map[string]interface{}{"n": 1.0, "deep": map[string]interface{}{
			"a": []interface{}{1.0, map[string]interface{}{"b": nil}}, "NAME": true,
		}},
		Any:    []interface{}{map[string]interface{}{"k": "v"}, `{"k":1,"k":2}`, []interface{}{[]interface{}{}}},
		Matrix: [][]float64{{1, 2.5e-3}, {}, {0, 7}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
	}
}

// TestDecodeEscapedNames matches member names as encoding/json decodes
// them, escapes resolved.
func TestDecodeEscapedNames(t *testing.T) {
	var got inner
	if err := Decode(strings.NewReader(`{"n\u0061me": "e"}`), &got); err != nil || got.Name != "e" {
		t.Fatalf("escaped exact name: %+v, %v", got, err)
	}
	err := Decode(strings.NewReader(`{"name": "a", "n\u0061me": "b"}`), &got)
	if err == nil || !strings.Contains(err.Error(), "duplicate member name") {
		t.Fatalf("a name given twice, once escaped: error %v", err)
	}
}

// TestDecodeRejects pins each rule with the path its error must name.
func TestDecodeRejects(t *testing.T) {
	for _, tc := range []struct {
		label, in, want string
	}{
		{"mis-cased top member", `{"TITLE": "t"}`, "unknown member TITLE"},
		{"untagged field by its lower-case name", `{"untagged": 1}`, "unknown member untagged"},
		{"json:\"-\" field by its Go name", `{"Skipped": "s"}`, "unknown member Skipped"},
		{"unexported field", `{"hidden": 1}`, "unknown member hidden"},
		{"mis-cased member through a pointer", `{"child": {"NAME": "c"}}`, "unknown member child.NAME"},
		{"unknown member in a slice element", `{"items": [{"name": "a"}, {"name": "b", "extra": 1}]}`,
			"unknown member items[1].extra"},
		{"mis-cased member in a map value", `{"by_name": {"y z": {"Name": "y"}}}`,
			"unknown member by_name.y z.Name"},
		{"top member twice", `{"ptr": 1, "ptr": 2}`, "duplicate member ptr"},
		{"map key twice", `{"by_name": {"x": {}, "x": {}}}`, "duplicate member by_name.x"},
		{"interface member twice", `{"args": {"deep": {"a": 1, "a": 1}}}`, "duplicate member args.deep.a"},
		{"member twice in an interface array", `{"any": [0, {"k": 1, "k": 2}]}`, "duplicate member any[1].k"},
		{"trailing garbage", `{"title": "t"} garbage`, "after top-level value"},
		{"two values", `{"title": "t"} {"title": "t"}`, "after top-level value"},
		{"truncated", `{"title": "t"`, "unexpected end"},
	} {
		var got doc
		err := Decode(strings.NewReader(tc.in), &got)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.label, err, tc.want)
		}
	}
}
