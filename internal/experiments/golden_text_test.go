package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the text goldens under testdata/")

// artifact names one result value for a text golden.
type artifact struct {
	name string
	v    any
}

// goldenLines flattens artifacts into one line per value: artifact, row,
// field path and value. A top-level slice or map has one row per element
// (its index or key); anything else is the single row "-". A row that is
// itself a scalar has the field path "-". Floats print in their shortest
// round-trip form, so a line pins its value bit for bit. Zero values are
// left out: a field that is always zero pins nothing, so adding or
// deleting one moves no line.
func goldenLines(arts ...artifact) []string {
	var out []string
	for _, a := range arts {
		v := reflect.ValueOf(a.v)
		emit := func(row string) func(path, val string) {
			return func(path, val string) {
				if path = strings.TrimPrefix(path, "."); path == "" {
					path = "-"
				}
				out = append(out, fmt.Sprintf("%s %s %s %s", a.name, row, path, val))
			}
		}
		switch v.Kind() {
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				flattenValue(emit(strconv.Itoa(i)), "", v.Index(i))
			}
		case reflect.Map:
			for _, k := range sortedKeys(v) {
				flattenValue(emit(leafString(k)), "", v.MapIndex(k))
			}
		default:
			flattenValue(emit("-"), "", v)
		}
	}
	return out
}

// flattenValue emits every non-zero leaf under v, its path built from
// field names, [index] and [key].
func flattenValue(emit func(path, val string), path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			flattenValue(emit, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			flattenValue(emit, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		for _, k := range sortedKeys(v) {
			flattenValue(emit, fmt.Sprintf("%s[%s]", path, leafString(k)), v.MapIndex(k))
		}
	default:
		if !v.IsZero() {
			emit(path, leafString(v))
		}
	}
}

// leafString renders a scalar, or an array of scalars as [a,b], with no
// spaces so that a line splits cleanly into its four parts.
func leafString(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Float32, reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.String:
		return strconv.Quote(v.String())
	case reflect.Array:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = leafString(v.Index(i))
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	panic(fmt.Sprintf("golden: unsupported kind %s", v.Kind()))
}

// sortedKeys orders a map's integer keys numerically, element by element
// for arrays of integers.
func sortedKeys(m reflect.Value) []reflect.Value {
	keys := m.MapKeys()
	sort.Slice(keys, func(i, j int) bool { return lessValue(keys[i], keys[j]) })
	return keys
}

func lessValue(a, b reflect.Value) bool {
	if a.Kind() != reflect.Array {
		return a.Int() < b.Int()
	}
	for i := 0; i < a.Len(); i++ {
		if x, y := a.Index(i).Int(), b.Index(i).Int(); x != y {
			return x < y
		}
	}
	return false
}

// checkGolden compares lines with testdata/<file>, or rewrites the file
// under -update. On a mismatch it reports the first lines that differ,
// each naming its artifact, row and field.
func checkGolden(t *testing.T, file string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	got := strings.Join(lines, "\n") + "\n"
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	missing, extra := lineDiff(want, lines), lineDiff(lines, want)
	if len(missing) == 0 && len(extra) == 0 {
		return
	}
	const show = 10
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d lines gone or changed, %d new or changed (-want +got, first %d of each):", path, len(missing), len(extra), show)
	for _, l := range missing[:min(show, len(missing))] {
		b.WriteString("\n- " + l)
	}
	for _, l := range extra[:min(show, len(extra))] {
		b.WriteString("\n+ " + l)
	}
	t.Error(b.String())
}

// lineDiff returns the lines of a, in order, that b does not contain.
func lineDiff(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, l := range b {
		in[l] = true
	}
	var out []string
	for _, l := range a {
		if !in[l] {
			out = append(out, l)
		}
	}
	return out
}
