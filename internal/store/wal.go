package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"simjoin/internal/dataset"
)

// WAL file format (all integers little-endian):
//
//	header:  "SJWL" | version uint16 | gen uint64
//	records: payloadLen uint32 | crc uint32 | payload
//
// gen names the snapshot generation the log applies on top of:
// replay loads snapshot-<gen> (empty base if the file is absent) and
// applies records in order. The per-record CRC covers the payload, so a
// torn write — short prefix, short payload, or a bit flip — is detected
// at the exact record boundary and recovery truncates there.
//
// Payloads:
//
//	opPut    | dims uint32 | count uint64 | count*dims float64   replace dataset
//	opAppend | dims uint32 | count uint32 | count*dims float64   append points
//	opDelete                                                     delete dataset
const (
	walMagic   = "SJWL"
	walVersion = 1
	walHdrLen  = 4 + 2 + 8
)

const (
	opPut    = byte(1)
	opAppend = byte(2)
	opDelete = byte(3)
)

// maxRecordBytes bounds one WAL record payload; anything larger is
// treated as corruption.
const maxRecordBytes = 1 << 30

// walName is the single log file every dataset directory carries.
const walName = "wal.log"

// encodeWALHeader renders the 14-byte file header for generation gen.
func encodeWALHeader(gen uint64) []byte {
	hdr := make([]byte, walHdrLen)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], walVersion)
	binary.LittleEndian.PutUint64(hdr[6:14], gen)
	return hdr
}

// decodeWALHeader parses a file header, returning the generation.
func decodeWALHeader(hdr []byte) (uint64, error) {
	if len(hdr) < walHdrLen {
		return 0, fmt.Errorf("store: WAL header truncated: %d of %d bytes", len(hdr), walHdrLen)
	}
	if string(hdr[0:4]) != walMagic {
		return 0, fmt.Errorf("store: bad WAL magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != walVersion {
		return 0, fmt.Errorf("store: unsupported WAL version %d (want %d)", v, walVersion)
	}
	return binary.LittleEndian.Uint64(hdr[6:14]), nil
}

// encodeRecord frames payload as length | crc | payload.
func encodeRecord(payload []byte) []byte {
	rec := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[8:], payload)
	return rec
}

// putPayload encodes an opPut record body for ds.
func putPayload(ds *dataset.Dataset) []byte {
	flat := ds.Flat()
	p := make([]byte, 1+4+8+8*len(flat))
	p[0] = opPut
	binary.LittleEndian.PutUint32(p[1:5], uint32(ds.Dims()))
	binary.LittleEndian.PutUint64(p[5:13], uint64(ds.Len()))
	for i, v := range flat {
		binary.LittleEndian.PutUint64(p[13+8*i:], math.Float64bits(v))
	}
	return p
}

// appendPayload encodes an opAppend record body for count points stored
// row-major in flat.
func appendPayload(dims int, flat []float64) []byte {
	p := make([]byte, 1+4+4+8*len(flat))
	p[0] = opAppend
	binary.LittleEndian.PutUint32(p[1:5], uint32(dims))
	binary.LittleEndian.PutUint32(p[5:9], uint32(len(flat)/dims))
	for i, v := range flat {
		binary.LittleEndian.PutUint64(p[9+8*i:], math.Float64bits(v))
	}
	return p
}

// deletePayload encodes an opDelete record body.
func deletePayload() []byte { return []byte{opDelete} }

// applyRecord folds one decoded payload into state, returning the new
// state (nil means "dataset deleted"). Structurally invalid payloads —
// unknown op, size mismatch, dimensionality conflict — return an error;
// since the CRC already matched, these indicate writer bugs, but replay
// treats them like a torn tail and truncates rather than guessing.
func applyRecord(state *dataset.Dataset, payload []byte) (*dataset.Dataset, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("store: empty WAL record")
	}
	op, body := payload[0], payload[1:]
	switch op {
	case opPut:
		if len(body) < 12 {
			return nil, fmt.Errorf("store: put record body %d bytes, want ≥ 12", len(body))
		}
		dims := int(binary.LittleEndian.Uint32(body[0:4]))
		count := binary.LittleEndian.Uint64(body[4:12])
		if dims < 1 || dims > 1<<20 {
			return nil, fmt.Errorf("store: put record has implausible dimensionality %d", dims)
		}
		if count > 1<<40 {
			return nil, fmt.Errorf("store: put record has implausible point count %d", count)
		}
		if uint64(len(body)-12) != count*uint64(dims)*8 {
			return nil, fmt.Errorf("store: put record declares %d×%d floats but carries %d bytes", count, dims, len(body)-12)
		}
		return decodeFloats(dims, body[12:]), nil
	case opAppend:
		if len(body) < 8 {
			return nil, fmt.Errorf("store: append record body %d bytes, want ≥ 8", len(body))
		}
		dims := int(binary.LittleEndian.Uint32(body[0:4]))
		count := int(binary.LittleEndian.Uint32(body[4:8]))
		if dims < 1 || dims > 1<<20 {
			return nil, fmt.Errorf("store: append record has implausible dimensionality %d", dims)
		}
		if len(body)-8 != count*dims*8 {
			return nil, fmt.Errorf("store: append record declares %d×%d floats but carries %d bytes", count, dims, len(body)-8)
		}
		pts := decodeFloats(dims, body[8:])
		if state == nil {
			return pts, nil // append into the void establishes the dataset
		}
		if state.Dims() != dims {
			return nil, fmt.Errorf("store: append record has %d dims, dataset has %d", dims, state.Dims())
		}
		// Grow extends the replay's newest snapshot in place, so a log of
		// r appends costs O(points), not r copies of the dataset.
		return state.Grow(pts.Flat()), nil
	case opDelete:
		if len(body) != 0 {
			return nil, fmt.Errorf("store: delete record carries %d unexpected bytes", len(body))
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("store: unknown WAL op %d", op)
	}
}

// decodeFloats builds a dataset from a little-endian float64 block whose
// length is already validated as count*dims*8.
func decodeFloats(dims int, body []byte) *dataset.Dataset {
	flat := make([]float64, len(body)/8)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return dataset.FromFlat(dims, flat)
}

// replayResult reports what replayWAL recovered.
type replayResult struct {
	gen       uint64 // snapshot generation the log applies to
	state     *dataset.Dataset
	records   int
	validEnd  int64 // offset just past the last valid record
	truncated bool  // a torn tail was dropped
	tailErr   error // why the tail was dropped (diagnostic only)
}

// replayWAL reads a whole WAL image, applying records to base. It never
// fails on a damaged tail: the first record that is short, CRC-mismatched
// or structurally invalid ends the replay, and validEnd marks where the
// file should be truncated. A damaged header, by contrast, is a hard
// error — there is no valid prefix to keep.
func replayWAL(data []byte, base *dataset.Dataset) (replayResult, error) {
	gen, err := decodeWALHeader(data)
	if err != nil {
		return replayResult{}, err
	}
	res := replayResult{gen: gen, state: base, validEnd: walHdrLen}
	off := int64(walHdrLen)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return res, nil
		}
		if len(rest) < 8 {
			res.truncated, res.tailErr = true, fmt.Errorf("store: torn record prefix: %d bytes", len(rest))
			return res, nil
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if plen == 0 || plen > maxRecordBytes {
			res.truncated, res.tailErr = true, fmt.Errorf("store: implausible record length %d", plen)
			return res, nil
		}
		if uint64(len(rest)-8) < uint64(plen) {
			res.truncated, res.tailErr = true, fmt.Errorf("store: torn record payload: %d of %d bytes", len(rest)-8, plen)
			return res, nil
		}
		payload := rest[8 : 8+plen]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			res.truncated, res.tailErr = true, fmt.Errorf("%w: record at offset %d: stored %08x, computed %08x", ErrChecksum, off, crc, got)
			return res, nil
		}
		next, err := applyRecord(res.state, payload)
		if err != nil {
			res.truncated, res.tailErr = true, err
			return res, nil
		}
		res.state = next
		res.records++
		off += int64(8 + plen)
		res.validEnd = off
	}
}

// loadWALFile reads and replays path on top of base, truncating a torn
// tail in place so the next writer appends after the valid prefix.
func loadWALFile(path string, base *dataset.Dataset) (replayResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return replayResult{}, err
	}
	res, err := replayWAL(data, base)
	if err != nil {
		return res, err
	}
	if res.truncated {
		if err := os.Truncate(path, res.validEnd); err != nil {
			return res, fmt.Errorf("store: truncating torn WAL tail of %s: %w", path, err)
		}
	}
	return res, nil
}

// createWALFile atomically writes a fresh WAL containing only the header
// for gen and returns it opened for appending.
func createWALFile(path string, gen uint64, hooks Hooks) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(encodeWALHeader(gen)); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := fsync(f, hooks); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := syncDir(path, hooks); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
