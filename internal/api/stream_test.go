package api

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
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
