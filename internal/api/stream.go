package api

import (
	"bufio"
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
func ReadStream(r io.Reader, pair func(p [2]int) error, object func(raw json.RawMessage) error) error {
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
