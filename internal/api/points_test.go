package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

// decodeBody runs DecodePoints over body through a limit of limit bytes,
// as a points route reads it.
func decodeBody(body []byte, limit int64) (dims int, flat []float64, err error) {
	return DecodePoints(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
}

// checkDecodePoints holds DecodePoints to encoding/json reading the same
// body through the same limit: it accepts exactly the bodies encoding/json
// accepts whose rows are non-empty and of one non-zero length, and yields
// those rows back to back, the same float64 bits.
func checkDecodePoints(t *testing.T, body []byte, limit int64) {
	t.Helper()
	var want Points
	werr := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)).Decode(&want)
	rect := werr == nil && len(want.Points) > 0 && len(want.Points[0]) > 0
	for _, p := range want.Points {
		rect = rect && len(p) == len(want.Points[0])
	}
	dims, flat, err := decodeBody(body, limit)
	if (err == nil) != rect {
		t.Fatalf("%q (limit %d): DecodePoints err=%v, encoding/json err=%v, rectangular=%v", body, limit, err, werr, rect)
	}
	if werr != nil && !strings.HasPrefix(err.Error(), "parsing request: ") {
		t.Fatalf("%q (limit %d): encoding/json refused it, but DecodePoints says %q", body, limit, err)
	}
	if err != nil {
		return
	}
	if dims != len(want.Points[0]) {
		t.Fatalf("%q: %d dims, encoding/json %d", body, dims, len(want.Points[0]))
	}
	var joined []float64
	for _, p := range want.Points {
		joined = append(joined, p...)
	}
	if len(flat) != len(joined) {
		t.Fatalf("%q: %d coordinates, encoding/json %d", body, len(flat), len(joined))
	}
	for k := range flat {
		if math.Float64bits(flat[k]) != math.Float64bits(joined[k]) {
			t.Fatalf("%q: coordinate %d = %v, encoding/json %v", body, k, flat[k], joined[k])
		}
	}
}

var decodePointsSeeds = []string{
	`{"points":[[0,0],[1,1]]}`,
	`{"points":[[1.5,-2.25,3e10]]}`,
	" \t\n{ \r\"points\" :\n[ [ 1 , 2 ] ,\t[3,4] ] \n} \n",
	`{"points":[[-0,0.0,-0.0]]}`,
	`{"points":[[1e-7,1E+21,1e400]]}`,
	`{"points":[[1e-400,4.9e-324,1.7976931348623157e308]]}`,
	`{"points":[[1e400]]}`,
	`{"points":[[-1e400]]}`,
	`{"points":[[0.1,0.30000000000000004,123456789012345678901234567890]]}`,
	`{"points":[[01]]}`,
	`{"points":[[.5]]}`,
	`{"points":[[1.]]}`,
	`{"points":[[+1]]}`,
	`{"points":[[-]]}`,
	`{"points":[[1e]]}`,
	`{"points":[[1e+]]}`,
	`{"points":[[0x10]]}`,
	`{"points":[[Infinity]]}`,
	`{"points":[[NaN]]}`,
	`null`,
	`{"points":null}`,
	`{"points":[[1,null]]}`,
	`{"points":[[1,"2"]]}`,
	`{}`,
	`{"points":[]}`,
	`{"points":[[]]}`,
	`{"points":[[1],[]]}`,
	`{"points":[[1,2],[3]]}`,
	`{"points":[[1],[2,3]]}`,
	`{"points":[[1]],"extra":true}`,
	`{"extra":1,"points":[[1]]}`,
	`{"points":[[1]],"points":[[2,3]]}`,
	`{"Points":[[1]]}`,
	`{"POINTS":[[1]]}`,
	`{"\u0070oints":[[1]]}`,
	`{"poin\u0074s":[[1,2]]}`,
	`{"points ":[[1]]}`,
	`{"points":[[1]]}garbage`,
	`{"points":[[1]]} {"points":[[2]]}`,
	`{"points":[[1]]`,
	`{"points":[[1],]}`,
	`{"points":[[1,]]}`,
	`{"points":[[1] [2]]}`,
	`{"points":[[[1]]]}`,
	`{"points":[[1]]}` + "\x00",
	"{\"points\":[[\x001]]}",
	"\ufeff{\"points\":[[1]]}",
	``,
	`   `,
	`[[1,2]]`,
}

// TestDecodePointsMatchesEncodingJSON runs the fuzz seeds, every one under
// a generous limit and under limits that cut it short, plus canonical
// bodies of random points encoding/json wrote itself.
func TestDecodePointsMatchesEncodingJSON(t *testing.T) {
	for _, s := range decodePointsSeeds {
		for _, limit := range []int64{1 << 20, int64(len(s)), int64(len(s) / 2), 1} {
			checkDecodePoints(t, []byte(s), limit)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pts := make([][]float64, 1+rng.Intn(20))
		dims := 1 + rng.Intn(8)
		for i := range pts {
			pts[i] = make([]float64, dims)
			for k := range pts[i] {
				pts[i][k] = math.Float64frombits(rng.Uint64())
				if math.IsNaN(pts[i][k]) || math.IsInf(pts[i][k], 0) {
					pts[i][k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				}
			}
		}
		body, err := json.Marshal(Points{Points: pts})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := scanPoints(body); !ok {
			t.Fatalf("canonical body %s not taken by the one-pass scanner", body)
		}
		checkDecodePoints(t, body, 1<<20)
	}
}

// TestDecodePointsErrorText: a refused body's error is the 400 a points
// route answers — encoding/json's error, or the shape the rows break.
func TestDecodePointsErrorText(t *testing.T) {
	for body, want := range map[string]string{
		`{"points":[[1e400]]}`:    "parsing request: json: cannot unmarshal number 1e400",
		`{"points":[]}`:           "no points in upload",
		`{"points":[[]]}`:         "point 0 has 0 dims",
		`{"points":[[1,2],[3]]}`:  "point 1 has 1 dims, want 2",
		`{"points":[[1]],"x":1}`:  "", // accepted
		`{"points":[[1]]}` + "\n": "",
	} {
		_, _, err := decodeBody([]byte(body), 1<<20)
		if (err == nil) != (want == "") || err != nil && !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%q: err %v, want %q", body, err, want)
		}
	}
	if _, _, err := decodeBody([]byte(`{"points":[[1,2],[3,4]]}`), 10); err == nil ||
		!strings.Contains(err.Error(), "http: request body too large") {
		t.Errorf("over the limit: err %v", err)
	}
}

func FuzzDecodePoints(f *testing.F) {
	for _, s := range decodePointsSeeds {
		f.Add([]byte(s), uint16(4096))
	}
	f.Add([]byte(`{"points":[[1,2],[3,4]]}`), uint16(10))
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		checkDecodePoints(t, body, int64(limit)+1)
	})
}

// uploadBody is a canonical upload of n random d-dimensional points, as a
// client's encoding/json writes it.
func uploadBody(n, d int) []byte {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for k := range pts[i] {
			pts[i][k] = rng.Float64()
		}
	}
	body, _ := json.Marshal(Points{Points: pts})
	return body
}

// BenchmarkDecodePoints decodes a 20 000 × 8 upload (3.1 MB) with the
// one-pass scanner and with encoding/json.
func BenchmarkDecodePoints(b *testing.B) {
	body := uploadBody(20000, 8)
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, _, err := decodeBody(body, 64<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var p Points
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
