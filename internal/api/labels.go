package api

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// The label codec: the label array of a Result or LabelsChunk is the bulk of
// a served read (three bytes a point on a noisy session), and encoding/json
// spends several times longer on it than the pipeline spends clustering. The
// functions below write it with strconv.AppendInt and read it with a byte
// scanner, and leave every other field to encoding/json. The bytes written
// are pinned to json.Encoder's (TestAppendResultMatchesEncodingJSON), and
// the decoders accept exactly what encoding/json accepts, with the same
// values (FuzzDecodeResult, FuzzDecodeLabelsChunk).

// AppendResult appends the JSON encoding of r to dst and returns the
// extended buffer. The bytes are json.NewEncoder(w).Encode(r)'s, trailing
// newline included: the label array is written with strconv.AppendInt, the
// other fields by json.Marshal, so Threshold keeps encoding/json's float
// formatting. Like Encode, it appends nothing when those fields do not
// marshal (a non-finite Threshold).
func AppendResult(dst []byte, r *Result) []byte {
	out, err := appendResult(dst, r)
	if err != nil {
		return dst
	}
	return append(out, '\n')
}

// AppendLabelsChunk appends the NDJSON line of LabelsChunk{off, labels} to
// dst: json.NewEncoder(w).Encode's bytes, trailing newline included.
func AppendLabelsChunk(dst []byte, off int, labels []int) []byte {
	dst = append(dst, `{"offset":`...)
	dst = strconv.AppendInt(dst, int64(off), 10)
	dst = append(dst, `,"labels":`...)
	dst = appendInts(dst, labels)
	return append(dst, "}\n"...)
}

// AppendMultiResolution appends the JSON encoding of m to dst, each level
// written as AppendResult writes it: json.NewEncoder(w).Encode's bytes,
// trailing newline included, or nothing when a level does not marshal.
func AppendMultiResolution(dst []byte, m *MultiResolutionResponse) []byte {
	if m.Levels == nil {
		return append(dst, "{\"levels\":null}\n"...)
	}
	out := append(dst, `{"levels":[`...)
	for i := range m.Levels {
		if i > 0 {
			out = append(out, ',')
		}
		var err error
		if out, err = appendResult(out, &m.Levels[i]); err != nil {
			return dst
		}
	}
	return append(out, "]}\n"...)
}

// appendResult appends r's compact JSON object without the newline.
func appendResult(dst []byte, r *Result) ([]byte, error) {
	meta := *r
	meta.Labels = nil
	m, err := json.Marshal(&meta)
	if err != nil {
		return dst, err
	}
	if len(r.Labels) == 0 {
		return append(dst, m...), nil // omitempty drops the key
	}
	dst = append(dst, `{"labels":`...)
	dst = appendInts(dst, r.Labels)
	dst = append(dst, ',')
	return append(dst, m[1:]...), nil
}

// appendInts writes a []int as encoding/json does: null for a nil slice.
// Noise (-1) and single-digit cluster ids, most labels of a result, are
// written without the strconv.AppendInt call.
func appendInts(dst []byte, v []int) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch {
		case x == -1:
			dst = append(dst, '-', '1')
		case uint(x) < 10:
			dst = append(dst, byte('0'+x))
		default:
			dst = strconv.AppendInt(dst, int64(x), 10)
		}
	}
	return append(dst, ']')
}

// DecodeResult decodes the JSON document raw into r, with the semantics of
// json.NewDecoder(bytes.NewReader(raw)).Decode(r): fields absent from raw
// keep r's values, and bytes after the first JSON value are ignored. The
// shape AppendResult writes, {"labels":[…],…} with the key first and
// decimal integers without whitespace, is scanned directly into a fresh
// Labels slice and only the other fields go through encoding/json; any
// other input (whitespace, exponents, null, a repeated or case-variant
// labels key, …) is decoded by encoding/json alone. raw is not retained.
func DecodeResult(raw []byte, r *Result) error {
	if decodeResultFast(raw, r) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(raw)).Decode(r)
}

// DecodeLabelsChunk decodes one NDJSON chunk line into c, with the
// semantics of json.Unmarshal(line, c). The exact line AppendLabelsChunk
// writes (without its newline) is scanned directly; anything else is
// decoded by encoding/json.
func DecodeLabelsChunk(line []byte, c *LabelsChunk) error {
	if decodeChunkFast(line, c) {
		return nil
	}
	return json.Unmarshal(line, c)
}

// labelsKey takes the place of Result.Labels while the fast path decodes
// the fields after the scanned array: it records that the document names
// the labels field again (under any spelling encoding/json folds onto it,
// and as null too), in which case the later value would win and the fast
// path must give way.
type labelsKey bool

func (k *labelsKey) UnmarshalJSON([]byte) error {
	*k = true
	return nil
}

// resultMeta decodes every Result field but Labels: the outer field
// shadows the embedded one.
type resultMeta struct {
	*Result
	Labels labelsKey `json:"labels"`
}

// decodeResultFast decodes raw into r if raw has the shape AppendResult
// writes, and reports whether it did; r is untouched when it did not.
func decodeResultFast(raw []byte, r *Result) bool {
	const prefix = `{"labels":[`
	if !bytes.HasPrefix(raw, []byte(prefix)) {
		return false
	}
	labels, rest, ok := scanInts(raw[len(prefix):])
	if !ok || len(rest) < 2 || rest[0] != ',' || rest[1] != '"' {
		return false
	}
	// The remaining fields, as the object {"…":…} they would form on their
	// own, decoded over a copy of r so a fallback starts from r unchanged.
	obj := make([]byte, len(rest))
	obj[0] = '{'
	copy(obj[1:], rest[1:])
	tmp := *r
	m := resultMeta{Result: &tmp}
	if json.NewDecoder(bytes.NewReader(obj)).Decode(&m) != nil || m.Labels {
		return false
	}
	tmp.Labels = labels
	*r = tmp
	return true
}

// decodeChunkFast decodes line into c if it is exactly the line
// AppendLabelsChunk writes, and reports whether it did.
func decodeChunkFast(line []byte, c *LabelsChunk) bool {
	const prefix, mid = `{"offset":`, `,"labels":[`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return false
	}
	off, n, ok := scanInt(line[len(prefix):])
	if !ok {
		return false
	}
	rest := line[len(prefix)+n:]
	if !bytes.HasPrefix(rest, []byte(mid)) {
		return false
	}
	labels, rest, ok := scanInts(rest[len(mid):])
	if !ok || len(rest) != 1 || rest[0] != '}' {
		return false
	}
	c.Offset, c.Labels = off, labels
	return true
}

// scanInts scans a comma-separated run of integers ending at the first ']'
// of b (the opening '[' already consumed). It returns the values, never a
// nil slice, and the bytes after the ']'; ok is false unless every element
// is a scanInt integer followed directly by ',' or the closing ']'.
func scanInts(b []byte) (vals []int, rest []byte, ok bool) {
	end := bytes.IndexByte(b, ']')
	if end < 0 {
		return nil, nil, false
	}
	arr := b[:end]
	n := 0
	if len(arr) > 0 {
		n = bytes.Count(arr, []byte{','}) + 1
	}
	vals = make([]int, n)
	i := 0
	for k := range vals {
		if k > 0 {
			if i >= len(arr) || arr[i] != ',' {
				return nil, nil, false
			}
			i++
		}
		v, w, ok := scanInt(arr[i:])
		if !ok {
			return nil, nil, false
		}
		vals[k] = v
		i += w
	}
	if i != len(arr) {
		return nil, nil, false
	}
	return vals, b[end+1:], true
}

// maxSafeDigits is the longest digit run that cannot overflow an int.
const maxSafeDigits = strconv.IntSize/64*9 + 9

// scanInt scans the integer at the start of b and returns it with its width
// in bytes. It accepts only the form strconv.AppendInt writes, in int range:
// 0, or an optional '-' and a nonzero digit followed by digits. -0, leading
// zeros and anything longer than an int are left to encoding/json.
func scanInt(b []byte) (v, width int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	start := i
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int(d) // wraps past maxSafeDigits, rescanned below
	}
	switch digits := i - start; {
	case digits == 0, b[start] == '0' && (digits > 1 || neg):
		return 0, 0, false
	case digits > maxSafeDigits:
		x, err := strconv.ParseInt(string(b[:i]), 10, strconv.IntSize)
		return int(x), i, err == nil
	case neg:
		return -v, i, true
	}
	return v, i, true
}
