package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"
)

// streamFlushEvery is how many NDJSON pair lines accumulate between
// explicit flushes to the client.
const streamFlushEvery = 1024

// PairStream answers a join as NDJSON — one [i,j] line per pair the
// moment the join finds it, closed by a JoinSummary — so neither the
// server nor the client ever holds the full pair set. Nothing reaches
// the client before the first flush, so a join that fails validation
// before its first pair can still be answered with a plain Error.
type PairStream struct {
	w         http.ResponseWriter
	bw        *bufio.Writer
	max, sent int64
	line      []byte // scratch for one pair line
}

// NewPairStream starts an NDJSON answer on w that delivers at most
// maxPairs pair lines (0 = no cap).
func NewPairStream(w http.ResponseWriter, maxPairs int) *PairStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	return &PairStream{w: w, bw: bufio.NewWriter(w), max: int64(maxPairs)}
}

// Emit writes one pair line; pairs past the cap are dropped.
func (s *PairStream) Emit(i, j int) {
	if s.max > 0 && s.sent >= s.max {
		return
	}
	s.sent++
	s.line = appendPair(s.line[:0], i, j)
	s.bw.Write(s.line)
	if s.sent%streamFlushEvery == 0 {
		_ = s.bw.Flush()
		if f, ok := s.w.(http.Flusher); ok {
			f.Flush()
		}
	}
}

// appendPair appends the NDJSON pair line "[i,j]\n" to dst.
func appendPair(dst []byte, i, j int) []byte {
	dst = strconv.AppendInt(append(dst, '['), int64(i), 10)
	dst = strconv.AppendInt(append(dst, ','), int64(j), 10)
	return append(dst, ']', '\n')
}

// Sent is the number of pair lines written.
func (s *PairStream) Sent() int64 { return s.sent }

// Close ends the stream with its summary line.
func (s *PairStream) Close(sum JoinSummary) {
	line, _ := json.Marshal(sum)
	s.bw.Write(line)
	s.bw.WriteByte('\n')
	_ = s.bw.Flush()
}

// watchWriteTimeout bounds each write+flush to a watch subscriber, so a
// stalled client cannot pin the handler goroutine past eviction.
const watchWriteTimeout = 30 * time.Second

// WatchStream writes a standing query's NDJSON stream, held open until
// the client disconnects, the dataset goes away, the subscriber falls
// too far behind, or the server shuts down:
//
//	{"event":"hello","dataset":…,"seq":…}      stream opened
//	[i,j]                                      one new pair
//	{"event":"batch","seq":…,"added":…,…}      batch delimiter + resume cursor
//	{"event":"end","reason":…}                 terminal event
//
// Every method reports whether the client is still reading.
type WatchStream struct {
	bw *bufio.Writer
	rc *http.ResponseController
}

// NewWatchStream commits w to a streaming 200.
func NewWatchStream(w http.ResponseWriter) *WatchStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	return &WatchStream{bw: bufio.NewWriter(w), rc: http.NewResponseController(w)}
}

// event writes one event object and flushes it under the write deadline.
func (s *WatchStream) event(v any) bool {
	line, err := json.Marshal(v)
	if err != nil {
		return false
	}
	s.bw.Write(line)
	s.bw.WriteByte('\n')
	_ = s.rc.SetWriteDeadline(time.Now().Add(watchWriteTimeout))
	return s.bw.Flush() == nil && s.rc.Flush() == nil
}

// Hello opens the stream.
func (s *WatchStream) Hello(h WatchHello) bool {
	h.Event = "hello"
	return s.event(h)
}

// Batch writes one delta batch: its pair lines, then the marker b.
func (s *WatchStream) Batch(pairs [][2]int, b WatchBatch) bool {
	var line []byte
	for _, p := range pairs {
		line = appendPair(line[:0], p[0], p[1])
		s.bw.Write(line)
	}
	b.Event, b.Pairs = "batch", len(pairs)
	return s.event(b)
}

// End writes the terminal event.
func (s *WatchStream) End(reason string) bool {
	return s.event(WatchEnd{Event: "end", Reason: reason})
}

// ReadStream consumes an NDJSON answer — a join's or a watch's — value
// by value until EOF, handing each [i,j] line to pair and each object
// (event, summary, or a non-streaming worker's whole JoinResponse) to
// object. The first error from either ends the read and is returned.
//
// A canonical pair — "[i,j]", two unsigned decimal ints without leading
// zeros or spaces, what PairStream writes — is parsed in place. Any other
// value, of any length, goes to encoding/json over the same bytes, the
// design of DecodePoints: what is accepted, every pair and every object
// is exactly what decoding value by value with json.Decoder gives
// (FuzzReadStream).
func ReadStream(r io.Reader, pair func(p [2]int) error, object func(raw json.RawMessage) error) error {
	s := pairReader{src: r, buf: make([]byte, 0, streamReadBuf)}
	for {
		if !s.skipSpace() {
			if s.err == io.EOF {
				return nil
			}
			return s.err
		}
		if p, ok := s.pair(); ok {
			if err := pair(p); err != nil {
				return err
			}
			continue
		}
		raw, err := s.value()
		if err != nil {
			return err
		}
		if raw[0] != '[' {
			err = object(raw)
		} else {
			var p [2]int
			if err = json.Unmarshal(raw, &p); err == nil {
				err = pair(p)
			}
		}
		if err != nil {
			return err
		}
	}
}

// streamReadBuf is ReadStream's read size: a few hundred pair lines.
const streamReadBuf = 16 << 10

// maxPairDigits bounds a canonical pair's ints so that they fit an int
// (18 digits at 64 bits); longer ones go to encoding/json, which refuses
// what overflows.
const maxPairDigits = strconv.IntSize / 32 * 9

// pairReader is ReadStream's buffer over the answer: buf[r:] is read and
// not yet consumed; err is the source's first error, after which it is
// not read again.
type pairReader struct {
	src io.Reader
	buf []byte
	r   int
	err error
}

// fill reads once more from the source into the buffer's free end,
// first moving the unconsumed bytes to its front. It reports whether
// there may be more to read.
func (s *pairReader) fill() bool {
	if s.err != nil {
		return false
	}
	n := copy(s.buf, s.buf[s.r:])
	s.buf, s.r = s.buf[:n], 0
	if n == cap(s.buf) {
		s.buf = append(s.buf, 0)[:n]
	}
	m, err := s.src.Read(s.buf[n:cap(s.buf)])
	s.buf = s.buf[:n+m]
	s.err = err
	return true
}

// skipSpace consumes JSON whitespace; it reports false at the end of
// the source (s.err says why).
func (s *pairReader) skipSpace() bool {
	for {
		for ; s.r < len(s.buf); s.r++ {
			switch s.buf[s.r] {
			case ' ', '\t', '\n', '\r':
			default:
				return true
			}
		}
		if !s.fill() {
			return false
		}
	}
}

// pair consumes a canonical pair if one comes next.
func (s *pairReader) pair() (p [2]int, ok bool) {
	for {
		p, n, more := scanPair(s.buf[s.r:])
		if n > 0 {
			s.r += n
			return p, true
		}
		if !more || !s.fill() {
			return p, false
		}
	}
}

// scanPair parses a canonical pair at the start of b, reporting its
// length n (0 when there is none) and whether b ended before that was
// decided.
func scanPair(b []byte) (p [2]int, n int, more bool) {
	if len(b) == 0 || b[0] != '[' {
		return p, 0, len(b) == 0
	}
	i := 1
	for k, end := range [2]byte{',', ']'} {
		start := i
		v := 0
		for ; i < len(b) && i-start < maxPairDigits && '0' <= b[i] && b[i] <= '9'; i++ {
			v = v*10 + int(b[i]-'0')
		}
		switch {
		case i == len(b):
			return p, 0, true
		case i == start, b[start] == '0' && i-start > 1, b[i] != end:
			return p, 0, false
		}
		p[k] = v
		i++
	}
	return p, i, false
}

// value decodes the next value with encoding/json: from the buffered
// bytes, then the source. The bytes json.Decoder read past the value
// become the buffer again.
func (s *pairReader) value() (json.RawMessage, error) {
	rest := bytes.NewReader(s.buf[s.r:])
	dec := json.NewDecoder(io.MultiReader(rest, stickyReader{s}))
	var raw json.RawMessage
	err := dec.Decode(&raw)
	// Unread: what the decoder buffered past the value, then what it left
	// of the old buffer (which it finished before reading the source).
	ahead, _ := io.ReadAll(dec.Buffered())
	tail := s.buf[len(s.buf)-rest.Len():]
	buf := s.buf[:0]
	if n := len(ahead) + len(tail); n > cap(buf) {
		buf = make([]byte, 0, n)
	}
	buf = buf[:len(ahead)+len(tail)]
	copy(buf[len(ahead):], tail) // before ahead overwrites where tail was
	copy(buf, ahead)
	s.buf, s.r = buf, 0
	return raw, err
}

// stickyReader reads the pairReader's source on json.Decoder's behalf,
// keeping its first error.
type stickyReader struct{ s *pairReader }

func (r stickyReader) Read(b []byte) (int, error) {
	if r.s.err != nil {
		return 0, r.s.err
	}
	n, err := r.s.src.Read(b)
	r.s.err = err
	return n, err
}
