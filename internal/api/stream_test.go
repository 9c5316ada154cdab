package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// TestPairLineMatchesFmt: the NDJSON pair line is byte for byte what
// fmt's "[%d,%d]\n" writes.
func TestPairLineMatchesFmt(t *testing.T) {
	for _, p := range [][2]int{{0, 0}, {0, 1}, {7, 42}, {999, 1000}, {123456789, 987654321}, {math.MaxInt, math.MaxInt - 1}} {
		got := string(appendPair(nil, p[0], p[1]))
		if want := fmt.Sprintf("[%d,%d]\n", p[0], p[1]); got != want {
			t.Errorf("appendPair(%d, %d) = %q, want %q", p[0], p[1], got, want)
		}
	}
	rec := httptest.NewRecorder()
	s := NewPairStream(rec, 0)
	var want strings.Builder
	for i := 0; i < 3000; i++ {
		s.Emit(i, i*7919)
		fmt.Fprintf(&want, "[%d,%d]\n", i, i*7919)
	}
	s.Close(JoinSummary{Total: 3000})
	want.WriteString(`{"total":3000,"truncated":false,"elapsed_ms":0}` + "\n")
	if rec.Body.String() != want.String() {
		t.Fatal("PairStream output differs from the fmt form")
	}
}

// BenchmarkPairStreamEmit writes one NDJSON pair line per op.
func BenchmarkPairStreamEmit(b *testing.B) {
	s := NewPairStream(discardWriter{httptest.NewRecorder()}, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Emit(i, i+123456)
	}
}

// discardWriter is a ResponseWriter whose body goes nowhere, so the
// benchmark times the encoding, not a growing buffer.
type discardWriter struct{ *httptest.ResponseRecorder }

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// readStreamJSON is ReadStream as encoding/json alone reads an answer,
// value by value: the reference FuzzReadStream holds ReadStream to.
func readStreamJSON(r io.Reader, pair func(p [2]int) error, object func(raw json.RawMessage) error) error {
	dec := json.NewDecoder(r)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if raw[0] != '[' {
			if err := object(raw); err != nil {
				return err
			}
			continue
		}
		var p [2]int
		if err := json.Unmarshal(raw, &p); err != nil {
			return err
		}
		if err := pair(p); err != nil {
			return err
		}
	}
}

// errStop is a callback's refusal, which ends a read.
var errStop = errors.New("stop")

// readEvents reads an answer with read and lists what it delivered, one
// "[i j]" or raw object per value; with stopAt > 0 the stopAt-th callback
// refuses its value. It reports whether the read failed.
func readEvents(read func(io.Reader, func([2]int) error, func(json.RawMessage) error) error, r io.Reader, stopAt int) ([]string, bool) {
	var events []string
	deliver := func(e string) error {
		events = append(events, e)
		if len(events) == stopAt {
			return errStop
		}
		return nil
	}
	err := read(r, func(p [2]int) error { return deliver(fmt.Sprint(p)) },
		func(raw json.RawMessage) error { return deliver(string(raw)) })
	return events, err != nil
}

// onePairsBody is a non-streaming worker's whole answer on one line:
// about size bytes of pairs.
func onePairsBody(size int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"pairs":[`)
	for i := 0; b.Len() < size; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", i, i+1)
	}
	b.WriteString(`],"total":1}` + "\n[5,6]\n")
	return b.Bytes()
}

// FuzzReadStream: for any bytes, ReadStream delivers the pairs and the
// objects encoding/json delivers, in order, and fails where it fails —
// read whole, a byte at a time, with the last data and EOF in one Read,
// and with a callback that refuses a value.
func FuzzReadStream(f *testing.F) {
	for _, seed := range []string{
		"[1,2]\n[3,4]\n" + `{"total":2,"truncated":false,"elapsed_ms":1}` + "\n",
		"[1, 2]\n", "[1.0,2]\n", "[-1,2]\n", "[01,2]\n", "[0,0]\n[10,200]",
		"[12345678901234567890,1]\n", "[123456789012345678,1]\n",
		"[1,2]\r\n[3,4]\r\n",
		"{\n  \"event\": \"batch\",\n  \"seq\": 3\n}\n[7,8]\n",
		"[1,2]\n[3", "[1,2][3,4] 5 \"x\" null [1] [] [1,2,3]", "[1,2]x\n", "  \n\t",
	} {
		f.Add([]byte(seed))
	}
	f.Add(onePairsBody(1 << 20))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, stopAt := range []int{0, 2} {
			want, wantErr := readEvents(readStreamJSON, bytes.NewReader(body), stopAt)
			readers := map[string]io.Reader{
				"whole":    bytes.NewReader(body),
				"data+EOF": iotest.DataErrReader(bytes.NewReader(body)),
			}
			// A byte at a time, a megabyte would stall the fuzzer.
			if len(body) <= 64<<10 {
				readers["one byte"] = iotest.OneByteReader(bytes.NewReader(body))
			}
			for name, r := range readers {
				got, gotErr := readEvents(ReadStream, r, stopAt)
				if gotErr != wantErr || !slices.Equal(got, want) {
					t.Fatalf("%s, stop at %d: read %d values (failed %v), encoding/json %d (failed %v)\ngot  %.200q\nwant %.200q",
						name, stopAt, len(got), gotErr, len(want), wantErr, got, want)
				}
			}
		}
	})
}

// BenchmarkReadStream reads a 2 600-pair answer — the served self-join of
// the serve_query workload — with ReadStream and with encoding/json.
func BenchmarkReadStream(b *testing.B) {
	var body bytes.Buffer
	for i := 0; i < 2600; i++ {
		fmt.Fprintf(&body, "[%d,%d]\n", i*7, i*7+3)
	}
	body.WriteString(`{"total":2600,"truncated":false,"elapsed_ms":20}` + "\n")
	for name, read := range map[string]func(io.Reader, func([2]int) error, func(json.RawMessage) error) error{
		"fast": ReadStream, "encoding_json": readStreamJSON,
	} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(body.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := read(bytes.NewReader(body.Bytes()), func([2]int) error { return nil },
					func(json.RawMessage) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
