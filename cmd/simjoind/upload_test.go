package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"simjoin/internal/api"
	"simjoin/internal/cluster"
	"simjoin/internal/dataset"
	"simjoin/internal/jointest"
)

// sjn1 encodes pts in the binary point format.
func sjn1(t *testing.T, pts [][]float64) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := dataset.FromPoints(pts).WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// storedFlat is the coordinates a worker holds for name, back to back.
func storedFlat(t *testing.T, s *server, name string) []float64 {
	t.Helper()
	s.mu.RLock()
	e, ok := s.sets[name]
	s.mu.RUnlock()
	if !ok {
		t.Fatalf("worker holds no dataset %q", name)
	}
	return e.dataset().Internal().Flat()
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func flatten(pts [][]float64) []float64 {
	var out []float64
	for _, p := range pts {
		out = append(out, p...)
	}
	return out
}

// awkwardPoints are random coordinates plus the values a decimal round
// trip is most likely to get wrong: signed zero, subnormals, the extremes.
func awkwardPoints() [][]float64 {
	pts := jointest.UniformPoints(50, 3, 7)
	return append(pts,
		[]float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64},
		[]float64{-math.MaxFloat64, 1e-300, 0.1 + 0.2},
		[]float64{1e21, -1e-7, 123456789.123456789})
}

// TestUploadFormatsHoldSameBits: a worker given the same points as JSON,
// CSV and SJN1 holds bit-identical data, both on PUT and on append.
func TestUploadFormatsHoldSameBits(t *testing.T) {
	ts := stack(t, spec{})
	s := ts.srv[0]
	pts := awkwardPoints()
	jsonBody, err := json.Marshal(api.Points{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	var csvBody bytes.Buffer
	if err := dataset.FromPoints(pts).WriteCSV(&csvBody); err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{"application/json": jsonBody, "text/csv": csvBody.Bytes(), api.ContentTypeSJN1: sjn1(t, pts)}
	want := flatten(pts)
	for ct, body := range bodies {
		name := strings.ReplaceAll(ct, "/", "-")
		if resp, out := doJSON(t, http.MethodPut, ts.URL+"/datasets/"+name, body, 0, "Content-Type", ct); resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s: %d %v", ct, resp.StatusCode, out)
		}
		if got := storedFlat(t, s, name); !sameBits(got, want) {
			t.Errorf("PUT %s: worker holds different bits", ct)
		}
		if resp, out := doJSON(t, http.MethodPost, ts.URL+"/datasets/"+name+"/points", body, 0, "Content-Type", ct); resp.StatusCode != http.StatusOK {
			t.Fatalf("append %s: %d %v", ct, resp.StatusCode, out)
		}
		if got := storedFlat(t, s, name); !sameBits(got, append(want[:len(want):len(want)], want...)) {
			t.Errorf("append %s: worker holds different bits", ct)
		}
	}
}

// TestUploadRejectsBadSJN1: a binary body that is not exactly the finite
// points its header counts answers 400 with an error, and changes nothing.
func TestUploadRejectsBadSJN1(t *testing.T) {
	ts := stack(t, spec{})
	good := sjn1(t, [][]float64{{0, 0}, {1, 1}})
	empty := func() []byte {
		var b bytes.Buffer
		_ = dataset.New(2, 0).WriteBinary(&b)
		return b.Bytes()
	}()
	badMagic := append([]byte("SJN2"), good[4:]...)
	lying := bytes.Clone(good)
	binary.LittleEndian.PutUint64(lying[8:16], 3)
	cases := map[string][]byte{
		"NaN":           sjn1(t, [][]float64{{0, 0}, {math.NaN(), 1}}),
		"+Inf":          sjn1(t, [][]float64{{math.Inf(1), 0}}),
		"-Inf":          sjn1(t, [][]float64{{0, math.Inf(-1)}}),
		"truncated":     good[:len(good)-3],
		"header only":   good[:10],
		"count too big": lying,
		"trailing byte": append(bytes.Clone(good), 0),
		"bad magic":     badMagic,
		"zero points":   empty,
		"empty body":    nil,
	}
	for what, body := range cases {
		resp, out := doJSON(t, http.MethodPut, ts.URL+"/datasets/a",
			body, 0, "Content-Type", api.ContentTypeSJN1)
		if msg, _ := out["error"].(string); resp.StatusCode != http.StatusBadRequest || msg == "" {
			t.Errorf("PUT %s: %d %v, want 400 with an error", what, resp.StatusCode, out)
		}
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/datasets/a", nil, 0); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused uploads left a dataset behind: %d", resp.StatusCode)
	}

	doJSON(t, http.MethodPut, ts.URL+"/datasets/a", api.Points{Points: [][]float64{{0, 0}}}, http.StatusOK)
	cases["wrong dims"] = sjn1(t, [][]float64{{1, 2, 3}})
	for what, body := range cases {
		resp, out := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points",
			body, 0, "Content-Type", api.ContentTypeSJN1)
		if msg, _ := out["error"].(string); resp.StatusCode != http.StatusBadRequest || msg == "" {
			t.Errorf("append %s: %d %v, want 400 with an error", what, resp.StatusCode, out)
		}
	}
	_, info := doJSON(t, http.MethodGet, ts.URL+"/datasets/a", nil, 0)
	if info["len"] != 1.0 {
		t.Fatalf("refused appends changed the dataset: %v", info)
	}

	// Under a 64-byte limit, a 16-byte header counting more points than
	// the limit holds is refused like any other oversized body.
	sts := stack(t, spec{tune: func(s *server) { s.maxBody = 64 }})
	huge := bytes.Clone(good[:16])
	binary.LittleEndian.PutUint64(huge[8:16], 1<<40)
	if resp, out := doJSON(t, http.MethodPut, sts.URL+"/datasets/a", huge, 0, "Content-Type", api.ContentTypeSJN1); resp.StatusCode != http.StatusBadRequest || out["error"] == nil {
		t.Errorf("PUT of a header counting 2^40 points under a 64-byte limit: %d %v, want 400 with an error", resp.StatusCode, out)
	}
}

// TestUploadOctetStreamJSON: a JSON body sent as application/octet-stream,
// as some clients label raw bytes, is read as JSON — only a body opening
// with the SJN1 magic is read as SJN1.
func TestUploadOctetStreamJSON(t *testing.T) {
	ts := stack(t, spec{})
	s := ts.srv[0]
	pts := [][]float64{{0, 1}, {2, 3}}
	body, _ := json.Marshal(api.Points{Points: pts})
	if resp, out := doJSON(t, http.MethodPut, ts.URL+"/datasets/a", body, 0, "Content-Type", api.ContentTypeSJN1); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: %d %v", resp.StatusCode, out)
	}
	if resp, out := doJSON(t, http.MethodPost, ts.URL+"/datasets/a/points", body, 0, "Content-Type", api.ContentTypeSJN1); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %v", resp.StatusCode, out)
	}
	if got, want := storedFlat(t, s, "a"), flatten(append(pts, pts...)); !sameBits(got, want) {
		t.Fatalf("worker holds %v, want %v", got, want)
	}
}

// TestUploadAllocatesByBytesReceived: neither a declared Content-Length
// nor an SJN1 header's count sizes a buffer; memory follows the bytes
// that arrive. Each body below claims 64 MiB, within the limit, and
// sends a few bytes.
func TestUploadAllocatesByBytesReceived(t *testing.T) {
	const claim = 64 << 20
	header := make([]byte, 16)
	copy(header, dataset.BinaryMagic)
	binary.LittleEndian.PutUint32(header[4:8], 8)
	binary.LittleEndian.PutUint64(header[8:16], (claim-16)/64)
	for ct, body := range map[string][]byte{"application/json": []byte(`{"points":[[1,2],[3`), api.ContentTypeSJN1: header} {
		r := httptest.NewRequest(http.MethodPut, "/datasets/a", bytes.NewReader(body))
		r.Header.Set("Content-Type", ct)
		r.ContentLength = claim
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ok := decodeUpload(httptest.NewRecorder(), r, claim)
		runtime.ReadMemStats(&after)
		if ok {
			t.Fatalf("%s: a truncated body was accepted", ct)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > claim/16 {
			t.Errorf("%s: %d bytes allocated for a %d-byte body claiming %d", ct, n, len(body), claim)
		}
	}
}

// TestClusterShardsAreBitExact: after an upload and appends through a
// coordinator — in each body format — every worker holds exactly its
// slice of the points under the coordinator's shard map, bit for bit.
func TestClusterShardsAreBitExact(t *testing.T) {
	const margin = 0.2
	coord := stack(t, spec{workers: 3, margin: margin})
	workers, urls, c := coord.srv, coord.workers, coord.coord.c

	all := jointest.UniformPoints(50, 3, 7)
	if resp, out := doJSON(t, http.MethodPut, coord.URL+"/datasets/d", sjn1(t, all), 0, "Content-Type", api.ContentTypeSJN1); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: %d %v", resp.StatusCode, out)
	}
	_, shardPts := cluster.Partition(all, urls, margin)
	for i, w := range workers {
		if !sameBits(storedFlat(t, w, "d"), flatten(shardPts[i])) {
			t.Errorf("worker %d: shard differs from Partition's slice", i)
		}
	}

	batches := [][][]float64{jointest.UniformPoints(20, 3, 8), jointest.UniformPoints(7, 3, 9), jointest.UniformPoints(30, 3, 10)}
	doJSON(t, http.MethodPost, coord.URL+"/datasets/d/points", api.Points{Points: batches[0]}, http.StatusOK)
	var csvBody bytes.Buffer
	_ = dataset.FromPoints(batches[1]).WriteCSV(&csvBody)
	if resp, out := doJSON(t, http.MethodPost, coord.URL+"/datasets/d/points", csvBody.Bytes(), 0, "Content-Type", "text/csv"); resp.StatusCode != http.StatusOK {
		t.Fatalf("CSV append: %d %v", resp.StatusCode, out)
	}
	if resp, out := doJSON(t, http.MethodPost, coord.URL+"/datasets/d/points", sjn1(t, batches[2]), 0, "Content-Type", api.ContentTypeSJN1); resp.StatusCode != http.StatusOK {
		t.Fatalf("SJN1 append: %d %v", resp.StatusCode, out)
	}
	for _, b := range batches {
		all = append(all, b...)
	}
	sm, _ := c.Map("d")
	for i, w := range workers {
		var want []float64
		for _, g := range sm.Shards[i].Global {
			want = append(want, all[g]...)
		}
		if !sameBits(storedFlat(t, w, "d"), want) {
			t.Errorf("worker %d: shard differs from the shard map's slice after appends", i)
		}
	}
}
