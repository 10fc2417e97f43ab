package dataio

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strings"
	"testing"

	"adawave/internal/pointset"
)

// TestBatchReaderChunks: a labeled CSV streamed in small batches must
// reassemble into exactly the one-shot read.
func TestBatchReaderChunks(t *testing.T) {
	points := make([][]float64, 0, 23)
	labels := make([]int, 0, 23)
	for i := 0; i < 23; i++ {
		points = append(points, []float64{float64(i), float64(i) * 0.5, -float64(i)})
		labels = append(labels, i%3-1)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points, labels); err != nil {
		t.Fatal(err)
	}
	for _, batchSize := range []int{1, 4, 23, 100} {
		br := NewBatchReader(bytes.NewReader(buf.Bytes()), batchSize)
		var gotPts []float64
		var gotLabels []int
		batches := 0
		for {
			ds, ls, err := br.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if batchSize > 0 && ds.N > batchSize {
				t.Fatalf("batch of %d exceeds size %d", ds.N, batchSize)
			}
			if ds.D != 3 {
				t.Fatalf("dimension: got %d", ds.D)
			}
			gotPts = append(gotPts, ds.Data...)
			gotLabels = append(gotLabels, ls...)
			batches++
		}
		if !br.HasLabels() {
			t.Fatal("label column not detected")
		}
		wantBatches := (len(points) + batchSize - 1) / batchSize
		if batches != wantBatches {
			t.Fatalf("batchSize %d: got %d batches, want %d", batchSize, batches, wantBatches)
		}
		if len(gotPts) != len(points)*3 || len(gotLabels) != len(labels) {
			t.Fatalf("batchSize %d: reassembled %d coords / %d labels", batchSize, len(gotPts), len(gotLabels))
		}
		for i, p := range points {
			for j, v := range p {
				if gotPts[i*3+j] != v {
					t.Fatalf("coord %d/%d: got %v, want %v", i, j, gotPts[i*3+j], v)
				}
			}
			if gotLabels[i] != labels[i] {
				t.Fatalf("label %d: got %d, want %d", i, gotLabels[i], labels[i])
			}
		}
	}
}

// TestBatchReaderHeaderless: without a header every column is a coordinate.
func TestBatchReaderHeaderless(t *testing.T) {
	br := NewBatchReader(strings.NewReader("1,2\n3,4\n5,6\n"), 2)
	ds, ls, err := br.Next()
	if err != nil || ds.N != 2 || ds.D != 2 || ls != nil {
		t.Fatalf("first batch: ds=%+v labels=%v err=%v", ds, ls, err)
	}
	ds, _, err = br.Next()
	if err != nil || ds.N != 1 {
		t.Fatalf("second batch: ds=%+v err=%v", ds, err)
	}
	if _, _, err = br.Next(); err != io.EOF {
		t.Fatalf("exhausted stream: err=%v", err)
	}
}

// TestBatchReaderErrors: malformed rows error with absolute row numbers,
// and the error is sticky.
func TestBatchReaderErrors(t *testing.T) {
	br := NewBatchReader(strings.NewReader("x0,x1\n1,2\n3\n"), 10)
	if _, _, err := br.Next(); err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Fatalf("ragged row: err=%v", err)
	}
	if _, _, err := br.Next(); err == nil {
		t.Fatal("error must be sticky")
	}
	br = NewBatchReader(strings.NewReader("1,2\nx,4\n"), 10)
	if _, _, err := br.Next(); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("bad float: err=%v", err)
	}
	br = NewBatchReader(strings.NewReader("x0,label\n1,oops\n"), 10)
	if _, _, err := br.Next(); err == nil || !strings.Contains(err.Error(), "label") {
		t.Fatalf("bad label: err=%v", err)
	}
	// The header fixes the row width: a label column over narrower rows
	// must not turn the last coordinate into a label, and a wider row must
	// not add a dimension.
	for _, in := range []string{"x0,x1,label\n1,2\n", "x0,x1\n1,2,3\n"} {
		br = NewBatchReader(strings.NewReader(in), 10)
		if _, _, err := br.Next(); err == nil || !strings.Contains(err.Error(), "row 2") {
			t.Fatalf("%q: width mismatch against the header: err=%v", in, err)
		}
	}
	br = NewBatchReader(strings.NewReader("x0,x1\n1,2\n3,4\n5\n"), 2)
	if ds, _, err := br.Next(); err != nil || ds.N != 2 {
		t.Fatalf("rows before a ragged one: ds=%+v err=%v", ds, err)
	}
	if _, _, err := br.Next(); err == nil || !strings.Contains(err.Error(), "row 4") {
		t.Fatalf("ragged row after a full batch: err=%v", err)
	}
	br = NewBatchReader(strings.NewReader("label\n"), 10)
	if _, _, err := br.Next(); err != io.EOF {
		t.Fatalf("header-only stream: err=%v", err)
	}
}

// TestEachBatch: the callback sees every point once and its error aborts
// the stream.
func TestEachBatch(t *testing.T) {
	var buf bytes.Buffer
	ds := pointset.New(2, 10)
	for i := 0; i < 10; i++ {
		ds.AppendRow([]float64{float64(i), 1})
	}
	if err := WriteCSVDataset(&buf, ds, nil); err != nil {
		t.Fatal(err)
	}
	total := 0
	err := EachBatch(bytes.NewReader(buf.Bytes()), 3, func(b *pointset.Dataset, labels []int) error {
		if labels != nil {
			t.Fatal("unexpected labels")
		}
		total += b.N
		return nil
	})
	if err != nil || total != 10 {
		t.Fatalf("total=%d err=%v", total, err)
	}
	sentinel := io.ErrClosedPipe
	err = EachBatch(bytes.NewReader(buf.Bytes()), 3, func(b *pointset.Dataset, labels []int) error {
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("callback error must propagate, got %v", err)
	}
}

// FuzzBatchReader feeds arbitrary bytes to the chunked CSV reader (the
// served text/csv append path) at several batch sizes. It must never
// panic; every batch it accepts must be as wide as the stream's first row
// (the header, or the first data row without one); and a stream it accepts
// to the end must round-trip bit for bit through WriteCSVDataset and
// ReadCSVDataset. Seeds live in testdata/fuzz/FuzzBatchReader/.
func FuzzBatchReader(f *testing.F) {
	f.Add([]byte("x0,x1,label\n1,2,0\n3.5,-4,1\n"), 1)
	f.Add([]byte("1,2\n3,4\n"), 0)
	f.Fuzz(func(t *testing.T, data []byte, batchSize int) {
		batchSize %= 5 // 0 drains the stream into one batch
		width := 0
		if first, err := firstRecord(data); err == nil {
			width = len(first)
		}
		br := NewBatchReader(bytes.NewReader(data), batchSize)
		var all *pointset.Dataset
		var labels []int
		for {
			ds, ls, err := br.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // rejected input: only the absence of a panic matters
			}
			hasLabels := 0
			if br.HasLabels() {
				hasLabels = 1
			}
			if ds.D+hasLabels != width {
				t.Fatalf("accepted a %d-D batch (labels %v) from a stream %d fields wide", ds.D, br.HasLabels(), width)
			}
			if br.HasLabels() != (ls != nil) || (ls != nil && len(ls) != ds.N) {
				t.Fatalf("%d labels for %d points (header label column %v)", len(ls), ds.N, br.HasLabels())
			}
			if all == nil {
				all = pointset.New(ds.D, 0)
			}
			all.Data = append(all.Data, ds.Data[:ds.N*ds.D]...)
			all.N += ds.N
			labels = append(labels, ls...)
		}
		if all == nil {
			return
		}
		if !br.HasLabels() {
			labels = nil
		}
		var buf bytes.Buffer
		if err := WriteCSVDataset(&buf, all, labels); err != nil {
			t.Fatalf("write accepted stream: %v", err)
		}
		got, gotLabels, err := ReadCSVDataset(&buf)
		if err != nil {
			t.Fatalf("re-read accepted stream: %v", err)
		}
		if got.N != all.N || got.D != all.D || len(gotLabels) != len(labels) {
			t.Fatalf("round trip: %d×%d with %d labels, want %d×%d with %d", got.N, got.D, len(gotLabels), all.N, all.D, len(labels))
		}
		for i, v := range all.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("round trip: coordinate %d is %v, want %v", i, got.Data[i], v)
			}
		}
		for i, l := range labels {
			if gotLabels[i] != l {
				t.Fatalf("round trip: label %d is %d, want %d", i, gotLabels[i], l)
			}
		}
	})
}

// firstRecord parses the first CSV record of data the way BatchReader's
// csv.Reader does.
func firstRecord(data []byte) ([]string, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	return cr.Read()
}
