// Package jsonx is the one strict decoder for the fixed-schema JSON
// files the tools read: GAP instances, bench results, run-archive
// manifests, metrics and summaries, and Chrome trace exports. The JSONL
// event streams, whose records carry free-form fields, are read by
// obs.StreamReader instead.
package jsonx

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Decode reads exactly one JSON value from r into v, as json.Unmarshal
// does, under four rules that encoding/json alone does not keep:
//   - the value is not null (json.Unmarshal leaves v as it was, so a
//     file written as null would read as an empty one);
//   - every member of an object that fills a struct names one of the
//     struct's json fields exactly (encoding/json matches names without
//     regard to case and skips unknown ones);
//   - no object names a member twice, at any depth, maps and interface
//     values included (encoding/json keeps the last copy);
//   - only whitespace follows the value.
//
// Errors name the offending member's path, such as traceEvents[3].NAME.
// Only the parts of the value whose Go type can hold an object are
// walked member by member; the rest, such as a number matrix, costs one
// byte scan. A struct's members are its exported fields, named by their
// json tag or else their Go name; embedded structs are not promoted,
// and a type's own UnmarshalJSON is not consulted.
func Decode(r io.Reader, v any) error {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	data := buf.Bytes()
	// Unmarshal checks the syntax, and that only whitespace follows the
	// value, before it fills v; the walk may then trust both.
	if err := json.Unmarshal(data, v); err != nil {
		return err
	}
	w := walker{data: data}
	if w.next() == 'n' {
		return errors.New("top-level value is null")
	}
	return w.value(reflect.TypeOf(v), "")
}

// walker scans syntactically valid JSON from pos.
type walker struct {
	data []byte
	pos  int
}

// value checks the members of the value at pos, which fills a value of
// type t (nil for any value), and moves past it; path names the value.
func (w *walker) value(t reflect.Type, path string) error {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t != nil && t.Kind() == reflect.Interface {
		t = nil
	}
	open := w.next()
	if (open != '{' && open != '[') || (t != nil && !holdsObject(t)) {
		w.skip()
		return nil
	}
	var elem reflect.Type              // an array's elements or a map's values
	var fields map[string]reflect.Type // a struct's members
	if t != nil && t.Kind() == reflect.Struct {
		fields = map[string]reflect.Type{}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("json")
			if name, _, _ := strings.Cut(tag, ","); f.IsExported() && tag != "-" {
				fields[cmp.Or(name, f.Name)] = f.Type
			}
		}
	} else if t != nil {
		elem = t.Elem()
	}
	seen := map[string]bool{}
	w.pos++
	for i := 0; w.next() != open+2; i++ { // ']' is '['+2, '}' is '{'+2
		if w.data[w.pos] == ',' {
			w.pos++
		}
		at, ft := fmt.Sprintf("%s[%d]", path, i), elem
		if open == '{' {
			// The member name, as encoding/json decodes it, then its colon.
			w.next()
			start := w.pos
			w.skip()
			var name string
			_ = json.Unmarshal(w.data[start:w.pos], &name) // Decode checked the syntax
			w.next()
			w.pos++
			at = strings.TrimPrefix(path+"."+name, ".")
			if seen[name] {
				return fmt.Errorf("duplicate member %s", at)
			}
			seen[name] = true
			if fields != nil {
				var ok bool
				if ft, ok = fields[name]; !ok {
					return fmt.Errorf("unknown member %s", at)
				}
			}
		}
		if err := w.value(ft, at); err != nil {
			return err
		}
	}
	w.pos++
	return nil
}

// holdsObject reports whether a value of type t can contain an object.
func holdsObject(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct, reflect.Map, reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return holdsObject(t.Elem())
	}
	return false
}

// next moves past whitespace and returns the byte at pos.
func (w *walker) next() byte {
	for strings.IndexByte(" \t\n\r", w.data[w.pos]) >= 0 {
		w.pos++
	}
	return w.data[w.pos]
}

// skip moves past the value or member name at pos.
func (w *walker) skip() {
	for depth := 0; ; {
		switch w.data[w.pos] {
		case '"':
			for w.pos++; w.data[w.pos] != '"'; w.pos++ {
				if w.data[w.pos] == '\\' {
					w.pos++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
		w.pos++
		if depth == 0 && (w.pos == len(w.data) || strings.IndexByte(",:]} \t\n\r", w.data[w.pos]) >= 0) {
			return
		}
	}
}
