package appendjson

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

func sameAsJSON(t *testing.T, what string, got []byte, gotErr error, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, encoding/json error %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: got %s, encoding/json %s", what, got, want)
	}
}

func TestStringMatchesJSON(t *testing.T) {
	cases := []string{
		"", "plain", `"quoted" \ back`, "<script>&amp;</script>",
		"\u2028\u2029 separators", "\ufffd real replacement", "\u00fc \u30db \U0001F600",
		"bad \xff\xfe utf8 \xc3", "\xe2\x80", "\x7f del",
	}
	var all []byte
	for b := 0; b < 256; b++ {
		all = append(all, byte(b))
	}
	cases = append(cases, string(all))
	for _, s := range cases {
		sameAsJSON(t, "string "+s, String(nil, s), nil, s)
		sameAsJSON(t, "bytes "+s, String(nil, []byte(s)), nil, s)
	}
	// Appending keeps the existing prefix.
	if got := String([]byte("x:"), "a<"); string(got) != `x:"a\u003c"` {
		t.Fatalf("append: got %s", got)
	}
}

func TestTimeMatchesJSON(t *testing.T) {
	base := time.Date(2014, 2, 3, 4, 5, 6, 0, time.UTC)
	cases := []time.Time{
		{}, base, base.Add(123456789), base.Add(100), base.Add(time.Millisecond),
		base.In(time.FixedZone("ist", 5*3600+1800)), base.In(time.FixedZone("w", -(9*3600 + 59*60 + 59))),
		base.In(time.FixedZone("edge", 23*3600+59*60)), base.In(time.FixedZone("over", 24*3600)),
		base.In(time.FixedZone("far", 100*3600)), base.In(time.FixedZone("neg", -24*3600)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC),
		time.Date(0, 1, 1, 0, 30, 0, 0, time.UTC).In(time.FixedZone("before0", -3600)),
	}
	for _, tm := range cases {
		got, err := Time([]byte("p"), tm)
		if err != nil {
			if string(got) != "p" {
				t.Fatalf("time %v: failed append left %q, want the prefix", tm, got)
			}
			if _, want := tm.MarshalJSON(); want == nil || err.Error() != want.Error() {
				t.Fatalf("time %v: error %v, MarshalJSON error %v", tm, err, want)
			}
		} else {
			got = got[1:]
		}
		sameAsJSON(t, "time "+tm.String(), got, err, tm)
	}
}

func TestFloatMatchesJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 15, 1e-6, 9.99999e-7, 1e-7, 1e20, 1e21, 123456789e15,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-300, 1.5e300, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		cases = append(cases, math.Float64frombits(rng.Uint64()), rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range cases {
		got, err := Float(nil, f)
		sameAsJSON(t, "float", got, err, f)
	}
}
