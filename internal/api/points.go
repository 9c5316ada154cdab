package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// DecodePoints reads a Points body and returns its rows back to back in
// flat, each dims long: at least one row, every row the same non-zero
// length. On error, err's text is the 400 a points route answers.
//
// It buffers the body as its bytes arrive and parses a canonical one —
// one "points" key over at least one row, every row the same length,
// every coordinate a JSON number a float64 holds — in one pass, in about
// a third of encoding/json's time and allocation-free per coordinate
// (BenchmarkDecodePoints). Any other body goes to encoding/json over the
// bytes read (and the read's error, if any), so what is accepted, and
// every float64, is exactly encoding/json's.
func DecodePoints(body io.Reader) (dims int, flat []float64, err error) {
	// No size hint: the body's declared length is the client's word, and
	// the buffer must grow only with bytes actually received.
	var buf bytes.Buffer
	_, rerr := buf.ReadFrom(body)
	b := buf.Bytes()
	if rerr == nil {
		if dims, flat, ok := scanPoints(b); ok {
			return dims, flat, nil
		}
	}
	src := io.Reader(bytes.NewReader(b))
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	var req Points
	if err := json.NewDecoder(src).Decode(&req); err != nil {
		return 0, nil, fmt.Errorf("parsing request: %w", err)
	}
	if len(req.Points) == 0 {
		return 0, nil, errors.New("no points in upload")
	}
	dims = len(req.Points[0])
	if dims == 0 {
		return 0, nil, errors.New("point 0 has 0 dims")
	}
	flat = make([]float64, 0, len(req.Points)*dims)
	for i, p := range req.Points {
		if len(p) != dims {
			return 0, nil, fmt.Errorf("point %d has %d dims, want %d", i, len(p), dims)
		}
		flat = append(flat, p...)
	}
	return dims, flat, nil
}

// errReader replays a failed read after the bytes that preceded it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanPoints parses body if it is a canonical Points body (see
// DecodePoints). ok false means only "not canonical": the caller hands the
// body to encoding/json, which decides whether it is valid. Like
// json.Decoder, it stops at the end of the top-level object.
func scanPoints(body []byte) (dims int, flat []float64, ok bool) {
	s := scanner{b: body}
	if !s.next('{') || !s.key("points") || !s.next(':') || !s.next('[') || !s.next('[') {
		return 0, nil, false
	}
	// The first row fixes dims; then one allocation holds every row. Each
	// row takes at least 2·dims+1 bytes of body, which caps the '['-count
	// guess on a hostile body.
	for {
		v, ok := s.number()
		if !ok {
			return 0, nil, false
		}
		flat = append(flat, v)
		if s.next(']') {
			break
		}
		if !s.next(',') {
			return 0, nil, false
		}
	}
	dims = len(flat)
	rows := min(bytes.Count(body[s.i:], []byte{'['})+1, len(body)/(2*dims+1)+1)
	flat = append(make([]float64, 0, rows*dims), flat...)
	for s.next(',') {
		if !s.next('[') {
			return 0, nil, false
		}
		for k := 0; k < dims; k++ {
			if k > 0 && !s.next(',') {
				return 0, nil, false
			}
			v, ok := s.number()
			if !ok {
				return 0, nil, false
			}
			flat = append(flat, v)
		}
		if !s.next(']') {
			return 0, nil, false
		}
	}
	if !s.next(']') || !s.next('}') {
		return 0, nil, false
	}
	return dims, flat, true
}

// scanner walks a JSON body byte by byte.
type scanner struct {
	b []byte
	i int
}

// skip steps over JSON whitespace.
func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes the object key "k", spelled exactly: escapes and other
// spellings encoding/json folds onto the field are not canonical.
func (s *scanner) key(k string) bool {
	if !s.next('"') || !bytes.HasPrefix(s.b[s.i:], []byte(k)) {
		return false
	}
	s.i += len(k)
	if s.i == len(s.b) || s.b[s.i] != '"' {
		return false
	}
	s.i++
	return true
}

// number consumes one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, after whitespace, and
// parses it as encoding/json does: strconv.ParseFloat, whose range error
// encoding/json also refuses.
func (s *scanner) number() (float64, bool) {
	s.skip()
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	s.i = i
	return v, err == nil
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
