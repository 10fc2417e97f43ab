package adawave

import (
	"context"

	"adawave/internal/core"
	"adawave/internal/pointset"
)

// Out-of-core facade: mapped dataset files plus the bounded-memory
// clustering entry point. A MappedDataset is an mmap view over a simple
// header + row-major float64 file — its coordinates never enter the Go
// heap — and ClusterDatasetExternalOptions streams quantization through an
// external sort (chunks quantized by the in-RAM shard kernel, sorted runs
// spilled to temp files, loser-tree merge), so one clustering job over
// hundreds of millions of points runs with resident memory bounded by
// ExternalOptions.MaxResidentBytes instead of the dataset size. Labels are
// bit-identical to ClusterDatasetContext on the same rows.

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
// ClusterDatasetExternalOptions to keep resident memory bounded.
func OpenMappedDataset(path string) (*MappedDataset, error) {
	return pointset.OpenMapped(path)
}

// CreateMappedDataset creates (or truncates) a mapped-Dataset file for
// d-dimensional points. Fill it with AppendRow and finalize with Close.
func CreateMappedDataset(path string, d int) (*MappedDatasetWriter, error) {
	return pointset.CreateMapped(path, d)
}

// ExternalOptions tunes the out-of-core pipeline per call; the zero value
// derives everything from the 512 MiB default MaxResidentBytes budget. See
// core.ExternalOptions for field semantics.
type ExternalOptions = core.ExternalOptions

// ClusterDatasetExternalOptions clusters ds with resident memory bounded by
// opts.MaxResidentBytes: quantization streams the points in chunks through
// a spill-to-disk external sort and re-enters the shared pipeline, so the
// Result — labels, threshold, curve — is bit-identical to
// ClusterDatasetContext on the same rows. ds is typically a MappedDataset
// view, but any Dataset works.
func (c *Clusterer) ClusterDatasetExternalOptions(ctx context.Context, ds *Dataset, opts ExternalOptions) (*Result, error) {
	return c.eng.ClusterDatasetExternal(ctx, ds, opts)
}
