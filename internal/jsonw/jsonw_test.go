package jsonw

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// marshal is the oracle: encoding/json's bytes for v.
func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStringMatchesEncodingJSON checks String and StringBytes against
// json.Marshal on the escapes that matter (HTML, line separators, control bytes, invalid UTF-8)
// and on random byte strings.
func TestStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", `"quoted" \ back`, "<script>&amp;</script>",
		"line\u2028para\u2029end", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"bad \xff\xfe utf8 \xe2\x80", "é ü 漢字 🙂", `coverage_veneer_injected_total{op="ACCESS"}`,
		"SELECT A.X FROM A WHERE A.X < 3 AND A.Y > 'a&b'",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		var w, wb Writer
		w.String(s)
		wb.StringBytes([]byte(s))
		if got, want := string(w.B), marshal(t, s); got != want || string(wb.B) != want {
			t.Fatalf("String(%q) = %s, StringBytes = %s, want %s", s, got, wb.B, want)
		}
	}
}

// TestFloatMatchesEncodingJSON checks Float on both sides of the exponent
// cutoffs and on random bit patterns, and that NaN and ±Inf fail as
// encoding/json fails.
func TestFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, -1e21,
		123456789.5, 5e-324, math.MaxFloat64, 1.5e300, 2.5e-10, 42.2416}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			cases = append(cases, f)
		}
	}
	for _, f := range cases {
		var w Writer
		w.Float(f)
		if got, want := string(w.B), marshal(t, f); got != want || w.Err() != nil {
			t.Fatalf("Float(%v) = %s (%v), want %s", f, got, w.Err(), want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var w Writer
		w.Float(f)
		_, want := json.Marshal(f)
		if w.Err() == nil || w.Err().Error() != want.Error() {
			t.Errorf("Float(%v) error %v, want %v", f, w.Err(), want)
		}
	}
}

// TestWriterPlacesSeparators writes nested objects and arrays and compares
// them with json.Marshal of the same shape, nil and empty slices included.
func TestWriterPlacesSeparators(t *testing.T) {
	type inner struct {
		N  int64    `json:"n"`
		B  bool     `json:"b"`
		SS []string `json:"ss"`
	}
	v := struct {
		A  string     `json:"a"`
		In []inner    `json:"in"`
		E  []string   `json:"e"`
		M  [][]string `json:"m"`
	}{A: "x", In: []inner{{N: -3, B: true, SS: []string{"p", "q"}}, {N: 7}}, E: []string{}, M: [][]string{{"r"}, {}}}
	var w Writer
	w.Open('{')
	w.Key("a").String(v.A)
	w.Key("in").Open('[')
	for _, in := range v.In {
		w.Open('{')
		w.Key("n").Int(in.N)
		w.Key("b").Bool(in.B)
		w.Key("ss").Strings(in.SS)
		w.Close('}')
	}
	w.Close(']')
	w.Key("e").Strings(v.E)
	w.Key("m").Open('[')
	for _, ss := range v.M {
		w.Strings(ss)
	}
	w.Close(']')
	w.Close('}')
	if got, want := string(w.B), marshal(t, v); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}
