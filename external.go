package adawave

import (
	"context"

	"adawave/internal/core"
	"adawave/internal/pointset"
)

// Out-of-core facade: mapped dataset files plus the bounded-memory
// clustering entry points. A MappedDataset is an mmap view over a simple
// header + row-major float64 file — its coordinates never enter the Go
// heap — and ClusterDatasetExternal streams quantization through an
// external sort (chunks quantized by the in-RAM shard kernel, sorted runs
// spilled to temp files, loser-tree merge), so one clustering job over hundreds of
// millions of points runs with resident memory bounded by
// WithMaxResidentBytes instead of the dataset size. Labels are
// bit-identical to ClusterDataset on the same rows.

// MappedDataset is a read-only Dataset backed by an mmap-ed dataset file;
// see OpenMappedDataset. Close it when done — the Dataset view is invalid
// afterwards.
type MappedDataset = pointset.Mapped

// MappedDatasetWriter streams rows into a mapped-Dataset file with O(1)
// memory; see CreateMappedDataset. Only a successful Close yields a file
// OpenMappedDataset accepts.
type MappedDatasetWriter = pointset.MappedWriter

// ErrCorruptDataset tags a mapped-Dataset file that fails validation —
// wrong magic, impossible header, or a byte length that contradicts the
// declared point count (torn or truncated write). Match with errors.Is.
var ErrCorruptDataset = pointset.ErrCorruptDataset

// OpenMappedDataset opens and validates a mapped-Dataset file, returning a
// zero-copy read-only Dataset view (mmap on unix; decoded into memory
// elsewhere). Hand .Dataset() to any Dataset entry point; pair with
// ClusterDatasetExternal to keep resident memory bounded.
func OpenMappedDataset(path string) (*MappedDataset, error) {
	return pointset.OpenMapped(path)
}

// CreateMappedDataset creates (or truncates) a mapped-Dataset file for
// d-dimensional points. Fill it with AppendRow and finalize with Close.
func CreateMappedDataset(path string, d int) (*MappedDatasetWriter, error) {
	return pointset.CreateMapped(path, d)
}

// ExternalOptions tunes the out-of-core pipeline per call; the zero value
// derives everything from the clusterer's WithMaxResidentBytes budget (or
// its 512 MiB default). See core.ExternalOptions for field semantics.
type ExternalOptions = core.ExternalOptions

// ClusterDatasetExternal clusters ds with resident memory bounded by the
// clusterer's WithMaxResidentBytes budget: quantization streams the points
// in chunks through a spill-to-disk external sort and re-enters the
// shared pipeline, so the Result — labels, threshold, curve — is
// bit-identical to ClusterDataset on the same rows. ds is typically a
// MappedDataset view, but any Dataset works.
func (c *Clusterer) ClusterDatasetExternal(ctx context.Context, ds *Dataset) (*Result, error) {
	return c.eng.ClusterDatasetExternal(ctx, ds, core.ExternalOptions{MaxResidentBytes: c.maxResidentBytes})
}

// ClusterDatasetExternalOptions is ClusterDatasetExternal with explicit
// per-call tuning (chunk size, spill threshold, temp dir, budget override).
func (c *Clusterer) ClusterDatasetExternalOptions(ctx context.Context, ds *Dataset, opts ExternalOptions) (*Result, error) {
	if opts.MaxResidentBytes == 0 {
		opts.MaxResidentBytes = c.maxResidentBytes
	}
	return c.eng.ClusterDatasetExternal(ctx, ds, opts)
}

// ClusterMappedFile opens a mapped-Dataset file, clusters it out-of-core
// under the clusterer's memory budget, and closes it — the one-call form
// of OpenMappedDataset + ClusterDatasetExternal.
func (c *Clusterer) ClusterMappedFile(ctx context.Context, path string) (*Result, error) {
	m, err := OpenMappedDataset(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return c.ClusterDatasetExternal(ctx, m.Dataset())
}
