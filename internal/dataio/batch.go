package dataio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"adawave/internal/pointset"
)

// BatchReader reads a CSV point stream in fixed-size chunks, so a large
// file (or an HTTP request body) feeds a streaming session batch by batch
// without ever materializing the whole point set. It accepts the same
// format as ReadCSVDataset: an optional header row (detected by its first
// field not parsing as a number), coordinate columns, and labels when the
// header's last column is named “label”. Every data row must be as wide as
// the header, or, without one, as the first data row; errors carry
// absolute (1-based, header included) row numbers.
type BatchReader struct {
	cr        *csv.Reader
	batchSize int
	row       int // rows consumed so far (1-based numbering for errors)
	width     int // fields per data row, 0 until the header or first data row
	d         int // coordinate columns, 0 until the first data row
	hasLabels bool
	started   bool // first record consumed (header detection done)
	err       error
}

// NewBatchReader returns a reader yielding batches of up to batchSize
// points per Next call; batchSize ≤ 0 drains the whole stream into one
// batch.
func NewBatchReader(r io.Reader, batchSize int) *BatchReader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for better messages
	cr.ReuseRecord = true   // fields are parsed, never retained
	return &BatchReader{cr: cr, batchSize: batchSize}
}

// HasLabels reports whether the stream's header declared a label column
// (meaningful after the first Next call).
func (br *BatchReader) HasLabels() bool { return br.hasLabels }

// Next returns the next batch of at most batchSize points, with a parallel
// label slice when the stream carries labels (nil otherwise). It returns
// io.EOF — and no batch — once the stream is exhausted; any other error is
// sticky.
func (br *BatchReader) Next() (*pointset.Dataset, []int, error) {
	if br.err != nil {
		return nil, nil, br.err
	}
	var ds *pointset.Dataset
	var labels []int
	for {
		rec, err := br.cr.Read()
		if err == io.EOF {
			if ds == nil || ds.N == 0 {
				return nil, nil, io.EOF
			}
			return ds, labels, nil
		}
		if err != nil {
			br.err = fmt.Errorf("dataio: read csv: %w", err)
			return nil, nil, br.err
		}
		br.row++
		if !br.started {
			br.started = true
			if _, ferr := strconv.ParseFloat(rec[0], 64); ferr != nil {
				// Header row: it fixes the width of every data row.
				br.hasLabels = rec[len(rec)-1] == "label"
				br.width = len(rec)
				continue
			}
		}
		if br.d == 0 {
			if br.width == 0 {
				br.width = len(rec)
			}
			br.d = br.width
			if br.hasLabels {
				br.d--
			}
			if br.d < 1 {
				br.err = fmt.Errorf("dataio: no coordinate columns (width %d)", br.width)
				return nil, nil, br.err
			}
		}
		if len(rec) != br.width {
			br.err = fmt.Errorf("dataio: row %d has %d fields, want %d", br.row, len(rec), br.width)
			return nil, nil, br.err
		}
		if ds == nil {
			capacity := br.batchSize
			if capacity <= 0 {
				capacity = 1024
			}
			ds = pointset.New(br.d, capacity)
		}
		for j := 0; j < br.d; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				br.err = fmt.Errorf("dataio: row %d column %d: %w", br.row, j, err)
				return nil, nil, br.err
			}
			ds.Data = append(ds.Data, v)
		}
		ds.N++
		if br.hasLabels {
			l, err := strconv.Atoi(rec[br.d])
			if err != nil {
				br.err = fmt.Errorf("dataio: row %d label: %w", br.row, err)
				return nil, nil, br.err
			}
			labels = append(labels, l)
		}
		if br.batchSize > 0 && ds.N >= br.batchSize {
			return ds, labels, nil
		}
	}
}

// EachBatch streams r through fn in batches of batchSize points, stopping
// on the first error (fn's errors are returned as-is, so a consumer can
// abort ingestion).
func EachBatch(r io.Reader, batchSize int, fn func(ds *pointset.Dataset, labels []int) error) error {
	br := NewBatchReader(r, batchSize)
	for {
		ds, labels, err := br.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(ds, labels); err != nil {
			return err
		}
	}
}
