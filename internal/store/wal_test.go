package store

import (
	"bytes"
	"runtime"
	"testing"

	"simjoin/internal/dataset"
)

// buildWAL assembles a WAL image from a header and framed records.
func buildWAL(gen uint64, payloads ...[]byte) []byte {
	var buf bytes.Buffer
	buf.Write(encodeWALHeader(gen))
	for _, p := range payloads {
		buf.Write(encodeRecord(p))
	}
	return buf.Bytes()
}

func TestWALReplayPutAppendDelete(t *testing.T) {
	base := testDataset(t, 3, 2)
	extra := [][]float64{{9, 9}, {8, 8}}
	flat := []float64{9, 9, 8, 8}

	img := buildWAL(0, putPayload(base), appendPayload(2, flat))
	res, err := replayWAL(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.gen != 0 || res.records != 2 || res.truncated {
		t.Fatalf("replay = %+v", res)
	}
	want := base.Clone()
	for _, p := range extra {
		want.Append(p)
	}
	if !res.state.Equal(want) {
		t.Fatalf("replayed %d points, want %d", res.state.Len(), want.Len())
	}

	// A delete record ends with no dataset; a put after it resurrects.
	img = buildWAL(0, putPayload(base), deletePayload())
	res, err = replayWAL(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.state != nil {
		t.Fatalf("state after delete = %v, want nil", res.state)
	}
	img = buildWAL(0, putPayload(base), deletePayload(), putPayload(base))
	res, err = replayWAL(img, nil)
	if err != nil || res.state == nil || !res.state.Equal(base) {
		t.Fatalf("put after delete: res=%+v err=%v", res, err)
	}
}

func TestWALReplayAppliesOnBase(t *testing.T) {
	base := testDataset(t, 5, 3)
	img := buildWAL(7, appendPayload(3, []float64{1, 2, 3}))
	res, err := replayWAL(img, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.gen != 7 || res.state.Len() != 6 {
		t.Fatalf("replay on base: gen=%d len=%d", res.gen, res.state.Len())
	}
	if base.Len() != 5 {
		t.Fatal("replay mutated the base dataset")
	}
}

func TestWALTornTailTruncation(t *testing.T) {
	base := testDataset(t, 3, 2)
	full := buildWAL(0, putPayload(base), appendPayload(2, []float64{1, 1}), appendPayload(2, []float64{2, 2}))
	// Offset just past the second record: header + rec1 + rec2.
	rec1 := len(encodeRecord(putPayload(base)))
	rec2 := len(encodeRecord(appendPayload(2, []float64{1, 1})))
	wantEnd := int64(walHdrLen + rec1 + rec2)

	for cut := int(wantEnd) + 1; cut < len(full); cut++ {
		res, err := replayWAL(full[:cut], nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !res.truncated || res.validEnd != wantEnd || res.records != 2 {
			t.Fatalf("cut %d: truncated=%v validEnd=%d records=%d, want true/%d/2", cut, res.truncated, res.validEnd, res.records, wantEnd)
		}
		if res.state.Len() != 4 {
			t.Fatalf("cut %d: recovered %d points, want 4", cut, res.state.Len())
		}
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	base := testDataset(t, 3, 2)
	img := buildWAL(0, putPayload(base), appendPayload(2, []float64{1, 1}))
	// Flip a byte inside the second record's payload.
	rec1 := len(encodeRecord(putPayload(base)))
	img[walHdrLen+rec1+10] ^= 0xff
	res, err := replayWAL(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.truncated || res.records != 1 || res.state.Len() != 3 {
		t.Fatalf("corrupt record: truncated=%v records=%d len=%d", res.truncated, res.records, res.state.Len())
	}
	if res.validEnd != int64(walHdrLen+rec1) {
		t.Fatalf("validEnd = %d, want %d", res.validEnd, walHdrLen+rec1)
	}
}

func TestWALHeaderErrors(t *testing.T) {
	if _, err := replayWAL([]byte("SJ"), nil); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := replayWAL([]byte("NOPE0123456789"), nil); err == nil {
		t.Fatal("bad magic accepted")
	}
	img := buildWAL(0)
	img[4] = 42 // version
	if _, err := replayWAL(img, nil); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestApplyRecordRejectsGarbage(t *testing.T) {
	base := testDataset(t, 2, 2)
	cases := map[string][]byte{
		"empty":              {},
		"unknown op":         {42},
		"short put":          {opPut, 1, 2},
		"put size mismatch":  append([]byte{opPut, 2, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0}, 1, 2, 3),
		"short append":       {opAppend, 1},
		"append dims zero":   {opAppend, 0, 0, 0, 0, 0, 0, 0, 0},
		"delete with body":   {opDelete, 1},
		"append wrong bytes": {opAppend, 2, 0, 0, 0, 1, 0, 0, 0, 9},
	}
	for name, payload := range cases {
		if _, err := applyRecord(base, payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Dimensionality conflict with current state.
	if _, err := applyRecord(base, appendPayload(3, []float64{1, 2, 3})); err == nil {
		t.Error("dims conflict accepted")
	}
}

// TestWALReplayIsLinear: replaying r append records extends one shared
// buffer instead of copying the whole dataset per record, so what replay
// allocates stays a small multiple of the final dataset however many
// records there are (a copy per record is r × the dataset: ≈ 64 MB here).
func TestWALReplayIsLinear(t *testing.T) {
	const dims, batch, records = 4, 8, 200
	base := testDataset(t, 10000, dims)
	payloads := make([][]byte, records)
	for r := range payloads {
		flat := make([]float64, batch*dims)
		for i := range flat {
			flat[i] = float64(r)
		}
		payloads[r] = appendPayload(dims, flat)
	}
	img := buildWAL(0, payloads...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := replayWAL(img, base)
	runtime.ReadMemStats(&after)
	if err != nil || res.records != records || res.state.Len() != base.Len()+records*batch {
		t.Fatalf("replay: %d records, %v", res.records, err)
	}
	if got := res.state.Point(base.Len() + records*batch - 1)[0]; got != records-1 {
		t.Fatalf("last replayed point carries %g, want %d", got, records-1)
	}
	final := uint64(res.state.Len() * dims * 8)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("replaying %d append records allocated %d bytes; the final dataset is %d", records, alloc, final)
	if alloc >= 8*final {
		t.Errorf("replaying %d append records allocated %d bytes, ≥ 8× the %d-byte final dataset", records, alloc, final)
	}
}

func TestEncodeDecodeRecordFraming(t *testing.T) {
	p := appendPayload(2, []float64{1, 2})
	rec := encodeRecord(p)
	if len(rec) != 8+len(p) {
		t.Fatalf("record length %d, want %d", len(rec), 8+len(p))
	}
	var ds *dataset.Dataset
	res, err := replayWAL(append(encodeWALHeader(3), rec...), ds)
	if err != nil || res.records != 1 || res.state.Len() != 1 {
		t.Fatalf("framed record replay: %+v, %v", res, err)
	}
}
