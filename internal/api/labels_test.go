package api

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// codecResults is the golden table of the label codec: label arrays at the
// edges of omitempty and of the int range, and thresholds whose formatting
// encoding/json switches between plain and exponent notation.
func codecResults() map[string]Result {
	meta := Result{NumClusters: 3, Noise: 2, Threshold: 0.25, Levels: 1, Scale: 128,
		CellsQuantized: 900, CellsTransformed: 300, CellsKept: 41}
	with := func(labels []int, threshold float64) Result {
		r := meta
		r.Labels, r.Threshold = labels, threshold
		return r
	}
	return map[string]Result{
		"nil labels":     with(nil, 0.25),
		"empty labels":   with([]int{}, 0.25),
		"one label":      with([]int{0}, 0.25),
		"noise":          with([]int{-1}, 0.25),
		"mixed":          with([]int{-1, 0, 1, 2, -1, 10, 123456789}, 0.25),
		"int extremes":   with([]int{math.MaxInt, math.MinInt, math.MinInt + 1, 0}, 0.25),
		"threshold sum":  with([]int{1, -1}, 0.1+0.2),
		"threshold 1e21": with([]int{1}, 1e21),
		"threshold 1e20": with([]int{1}, 1e20),
		"threshold 1e-7": with([]int{1}, 1e-7),
		"threshold 1e-6": with([]int{1}, 1e-6),
		"threshold 0":    with([]int{1}, 0),
		"threshold -0":   with([]int{1}, math.Copysign(0, -1)),
		"threshold max":  with([]int{1}, math.MaxFloat64),
		"threshold NaN":  with([]int{1}, math.NaN()),
		"threshold +Inf": with(nil, math.Inf(1)),
		"zero value":     {},
	}
}

// encodeJSON renders v exactly as the server's json.Encoder did.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}

// TestAppendResultMatchesEncodingJSON pins the codec's bytes to
// encoding/json's for every response it writes: /labels, the NDJSON chunk
// lines and /multiresolution. A non-finite threshold writes nothing on
// both sides.
func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	prefix := []byte("prefix ")
	for name, r := range codecResults() {
		want := encodeJSON(r)
		if got := AppendResult(nil, &r); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendResult\n got %q\nwant %q", name, got, want)
		}
		if got := AppendResult(prefix, &r); !bytes.Equal(got, append(prefix[:len(prefix):len(prefix)], want...)) {
			t.Errorf("%s: AppendResult after a prefix: %q", name, got)
		}
		for _, off := range []int{0, 8192, math.MaxInt, -3} {
			want := encodeJSON(LabelsChunk{Offset: off, Labels: r.Labels})
			if got := AppendLabelsChunk(nil, off, r.Labels); !bytes.Equal(got, want) {
				t.Errorf("%s: AppendLabelsChunk(%d)\n got %q\nwant %q", name, off, got, want)
			}
		}
	}
	ok, bad := codecResults()["mixed"], codecResults()["threshold NaN"]
	for name, levels := range map[string][]Result{
		"nil":       nil,
		"empty":     {},
		"one":       {ok},
		"three":     {ok, codecResults()["nil labels"], codecResults()["int extremes"]},
		"NaN level": {ok, bad},
	} {
		m := MultiResolutionResponse{Levels: levels}
		want := encodeJSON(m)
		if got := AppendMultiResolution(prefix, &m); !bytes.Equal(got, append(prefix[:len(prefix):len(prefix)], want...)) {
			t.Errorf("%s: AppendMultiResolution\n got %q\nwant %q", name, got, want)
		}
	}
}

// TestDecodeFastPathTakesWrittenBodies: every body and chunk line the
// codec writes is read back by the scanner itself, not the encoding/json
// fallback, and reads back as the value written. Without this a scanner
// that declined everything would still pass the differential fuzz targets.
func TestDecodeFastPathTakesWrittenBodies(t *testing.T) {
	for name, r := range codecResults() {
		body := AppendResult(nil, &r)
		if len(r.Labels) == 0 || len(body) == 0 {
			continue // no label array to scan (or nothing written)
		}
		var got Result
		if !decodeResultFast(body, &got) {
			t.Errorf("%s: fast path declined the written body %q", name, body)
		} else if !reflect.DeepEqual(got, r) {
			t.Errorf("%s: read back %+v, wrote %+v", name, got, r)
		}
		line := AppendLabelsChunk(nil, 16384, r.Labels)
		var c LabelsChunk
		if !decodeChunkFast(line[:len(line)-1], &c) {
			t.Errorf("%s: fast path declined the written chunk %q", name, line)
		} else if c.Offset != 16384 || !reflect.DeepEqual(c.Labels, r.Labels) {
			t.Errorf("%s: chunk read back as %+v", name, c)
		}
	}
}

// fuzzStart is the value both decoders start from: non-zero fields show
// that a field absent from the input keeps its value on both paths.
func fuzzStart() Result {
	return Result{Labels: []int{7, 8}, NumClusters: 5, Noise: 1, Threshold: 0.5, Scale: 64}
}

// FuzzDecodeResult: on any input, DecodeResult and json.Decoder.Decode
// either both reject it or give deeply equal results (nil and empty label
// slices told apart), and DecodeResult leaves its input unchanged. The
// seeds under testdata/fuzz/ hold a real body and the shapes the scanner
// must hand to encoding/json: repeated and case-folded labels keys, null,
// exponents, -0, leading zeros, overflow, whitespace, truncation.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		orig := bytes.Clone(raw)
		fast, slow := fuzzStart(), fuzzStart()
		errFast := DecodeResult(raw, &fast)
		errSlow := json.NewDecoder(bytes.NewReader(raw)).Decode(&slow)
		if !bytes.Equal(raw, orig) {
			t.Fatalf("DecodeResult modified its input: %q → %q", orig, raw)
		}
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("input %q: DecodeResult error %v, encoding/json error %v", raw, errFast, errSlow)
		}
		if errFast == nil && !reflect.DeepEqual(fast, slow) {
			t.Fatalf("input %q:\nDecodeResult  %#v\nencoding/json %#v", raw, fast, slow)
		}
	})
}

// FuzzDecodeLabelsChunk: on any line, DecodeLabelsChunk and json.Unmarshal
// either both reject it or give deeply equal chunks.
func FuzzDecodeLabelsChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		orig := bytes.Clone(line)
		fast := LabelsChunk{Offset: 3, Labels: []int{9}}
		slow := LabelsChunk{Offset: 3, Labels: []int{9}}
		errFast := DecodeLabelsChunk(line, &fast)
		errSlow := json.Unmarshal(line, &slow)
		if !bytes.Equal(line, orig) {
			t.Fatalf("DecodeLabelsChunk modified its input: %q → %q", orig, line)
		}
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("line %q: DecodeLabelsChunk error %v, encoding/json error %v", line, errFast, errSlow)
		}
		if errFast == nil && !reflect.DeepEqual(fast, slow) {
			t.Fatalf("line %q:\nDecodeLabelsChunk %#v\nencoding/json     %#v", line, fast, slow)
		}
	})
}
