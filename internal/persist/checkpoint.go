package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// A session checkpoint is the full durable state of one streaming session,
// versioned by its magic and framed by a CRC-32C trailer over everything
// between magic and trailer:
//
//	"AWC1"
//	| configLen uint32 | config JSON (ConfigMeta)
//	| n uint64 | d uint32
//	| — when the config names an embedding —
//	| embLen uint32 | fitted embedder (embed.MarshalBinary bytes)
//	| data n·d float64
//	| — when n > 0 —
//	| scale uint32 | mins g float64 | maxs g float64
//	| ids n int32
//	| gridLen uint64 | grid snapshot (PackedGrid.WriteSnapshot bytes)
//	| crc32c uint32
//
// d is always the raw row dimensionality. The quantizer frame and the grid
// live in grid space: g equals the embedder's output dimensionality when an
// embedding is configured (the embedder section restores the exact fitted
// projection, so a restored session re-projects its raw rows bit for bit),
// and g = d otherwise — a checkpoint without an embedding is byte-identical
// to the pre-embedding format, so old checkpoints keep restoring. embLen is
// 0 only for an empty session whose embedder was never fitted. The grid
// snapshot is written as AWG2; checkpoints whose grid section is the
// retired flat AWG1 encoding still restore (grid.ReadSnapshot reads both).
//
// The point rows and memoized cell ids are the session's warm state: a
// restore rebuilds the quantizer from the stored frame (scale + bounds) and
// re-adopts the embedded grid without requantizing a single point, so cold
// recovery is O(points + cells) sequential reads. The config fingerprint
// guards the restore: a checkpoint taken under one configuration silently
// restored under another would break the bit-identical equivalence
// guarantee, so the mismatch is a typed error instead.
const checkpointMagic = "AWC1"

// maxConfigJSON bounds the config section; a fingerprint is < 1 KiB.
const maxConfigJSON = 1 << 20

// maxEmbedderBytes bounds the fitted-embedder section: a (k+1)×d float64
// parameter block at the dimension caps is ~8 MiB; 16 MiB leaves headroom.
const maxEmbedderBytes = 1 << 24

// maxCheckpointPoints bounds the declared row count before any conversion
// to int, mirroring the grid snapshot's cell-count guard on 32-bit
// platforms.
const maxCheckpointPoints = 1 << 40

// ErrConfigMismatch reports a checkpoint restored under an engine whose
// configuration differs from the one the checkpoint was taken under.
var ErrConfigMismatch = errors.New("persist: checkpoint configuration does not match the engine")

// ErrEmbeddingMismatch is the embedding-specific refinement of
// ErrConfigMismatch: the checkpoint and the engine disagree on the
// embedding spec (one has an embedding the other lacks, or the kind, K or
// seed differ). It wraps ErrConfigMismatch, so callers matching the broad
// root keep working while the serving layer can answer with the dedicated
// embedding_mismatch wire code.
var ErrEmbeddingMismatch = fmt.Errorf("%w: embedding spec differs", ErrConfigMismatch)

// ConfigMeta is the serialized configuration fingerprint. The basis is
// stored by name (the built-in filter banks are fixed by their names); the
// threshold field carries the strategy's name plus its rendered parameter
// values, so two configs with equal fingerprints produce bit-identical
// pipelines — a same-named strategy with a different parameter is a
// mismatch. core.ConfigFingerprint is the canonical renderer.
type ConfigMeta struct {
	Scale           int     `json:"scale"`
	Levels          int     `json:"levels"`
	Basis           string  `json:"basis"`
	Connectivity    string  `json:"connectivity"`
	CoeffEpsilon    float64 `json:"coeffEpsilon"`
	Threshold       string  `json:"threshold"`
	MinClusterCells int     `json:"minClusterCells"`
	MinClusterMass  float64 `json:"minClusterMass"`
	// Embedding is the canonical embed.Spec rendering ("pca(k=8)",
	// "rp(k=16,seed=42)"), empty when no embedding is configured — old
	// fingerprints without the field decode to the empty spec.
	Embedding string `json:"embedding,omitempty"`
}

// CheckConfig returns ErrConfigMismatch (with both fingerprints in the
// message) unless the checkpoint's meta equals the engine's; a disagreement
// on the embedding spec reports the more specific ErrEmbeddingMismatch.
func CheckConfig(fromCheckpoint, fromEngine ConfigMeta) error {
	if fromCheckpoint == fromEngine {
		return nil
	}
	if fromCheckpoint.Embedding != fromEngine.Embedding {
		return fmt.Errorf("%w: checkpoint %q, engine %q", ErrEmbeddingMismatch, fromCheckpoint.Embedding, fromEngine.Embedding)
	}
	return fmt.Errorf("%w: checkpoint %+v, engine %+v", ErrConfigMismatch, fromCheckpoint, fromEngine)
}

// SessionState is the payload of one checkpoint. DS/IDs/Grid are shared
// with the caller (WriteSessionCheckpoint does not copy; callers serialize
// under their session lock).
type SessionState struct {
	Config ConfigMeta
	// DS holds every current point, row-major; IDs is the memoized
	// base-grid cell index of each point (len DS.N).
	DS  *pointset.Dataset
	IDs []int32
	// Scale, Mins and Maxs are the quantizer frame the grid was built in;
	// meaningful only when DS.N > 0.
	Scale      int
	Mins, Maxs []float64
	// Grid is the live canonical base grid, block-compressed; nil when
	// DS.N == 0. It is written as an AWG2 snapshot and restored from
	// either snapshot version.
	Grid *grid.PackedGrid
	// Embedder is the session's fitted embedder; required when the config
	// names an embedding and DS.N > 0 (the frame and grid live in its
	// output space), nil otherwise. Its Spec must render to
	// Config.Embedding.
	Embedder embed.Embedder
}

// WriteSessionCheckpoint serializes st to w in the checkpoint format.
func WriteSessionCheckpoint(w io.Writer, st *SessionState) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return fmt.Errorf("persist: write checkpoint: %w", err)
	}
	cw := &crcWriter{w: bw}
	cfg, err := json.Marshal(st.Config)
	if err != nil {
		return fmt.Errorf("persist: marshal checkpoint config: %w", err)
	}
	if err := writeU32(cw, uint32(len(cfg))); err != nil {
		return fmt.Errorf("persist: write checkpoint: %w", err)
	}
	if _, err := cw.Write(cfg); err != nil {
		return fmt.Errorf("persist: write checkpoint: %w", err)
	}
	n, d := 0, 0
	if st.DS != nil {
		n, d = st.DS.N, st.DS.D
	}
	if err := writeU64(cw, uint64(n)); err != nil {
		return fmt.Errorf("persist: write checkpoint: %w", err)
	}
	if err := writeU32(cw, uint32(d)); err != nil {
		return fmt.Errorf("persist: write checkpoint: %w", err)
	}
	// g is the grid-space dimensionality the frame below is sized by: the
	// embedder's output dimension when one is configured, d otherwise.
	g := d
	if st.Config.Embedding != "" {
		var blob []byte
		if st.Embedder != nil {
			if got := st.Embedder.Spec().String(); got != st.Config.Embedding {
				return fmt.Errorf("persist: inconsistent session state: embedder %q under config embedding %q", got, st.Config.Embedding)
			}
			var err error
			if blob, err = st.Embedder.MarshalBinary(); err != nil {
				return fmt.Errorf("persist: write checkpoint embedder: %w", err)
			}
			g = st.Embedder.OutDim()
		} else if n > 0 {
			return fmt.Errorf("persist: inconsistent session state: %d points but no fitted embedder for embedding %q", n, st.Config.Embedding)
		}
		if err := writeU32(cw, uint32(len(blob))); err != nil {
			return fmt.Errorf("persist: write checkpoint embedder: %w", err)
		}
		if _, err := cw.Write(blob); err != nil {
			return fmt.Errorf("persist: write checkpoint embedder: %w", err)
		}
	}
	if n > 0 {
		if err := writeFloats(cw, st.DS.Data[:n*d]); err != nil {
			return fmt.Errorf("persist: write checkpoint rows: %w", err)
		}
		if len(st.IDs) != n || st.Grid == nil || len(st.Mins) != g || len(st.Maxs) != g {
			return fmt.Errorf("persist: inconsistent session state: %d ids, %d mins, %d maxs for %d points", len(st.IDs), len(st.Mins), len(st.Maxs), n)
		}
		if err := writeU32(cw, uint32(st.Scale)); err != nil {
			return fmt.Errorf("persist: write checkpoint: %w", err)
		}
		if err := writeFloats(cw, st.Mins); err != nil {
			return fmt.Errorf("persist: write checkpoint frame: %w", err)
		}
		if err := writeFloats(cw, st.Maxs); err != nil {
			return fmt.Errorf("persist: write checkpoint frame: %w", err)
		}
		if err := writeInt32s(cw, st.IDs); err != nil {
			return fmt.Errorf("persist: write checkpoint ids: %w", err)
		}
		// The grid snapshot is length-prefixed so the reader can hand
		// ReadSnapshot an exactly bounded sub-reader (its internal
		// buffering must not consume past the snapshot into the trailer).
		var gbuf bytes.Buffer
		if err := st.Grid.WriteSnapshot(&gbuf); err != nil {
			return fmt.Errorf("persist: write checkpoint grid: %w", err)
		}
		if err := writeU64(cw, uint64(gbuf.Len())); err != nil {
			return fmt.Errorf("persist: write checkpoint: %w", err)
		}
		if _, err := cw.Write(gbuf.Bytes()); err != nil {
			return fmt.Errorf("persist: write checkpoint grid: %w", err)
		}
	}
	if err := writeU32(bw, cw.crc); err != nil {
		return fmt.Errorf("persist: write checkpoint trailer: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("persist: write checkpoint: %w", err)
	}
	return nil
}

// ReadSessionCheckpoint restores a checkpoint written by
// WriteSessionCheckpoint, validating magic, section bounds, cross-section
// consistency (ids index the grid, grid mass equals the point count) and
// the CRC trailer, so a truncated or corrupted checkpoint is reported
// instead of restoring a quietly broken session.
func ReadSessionCheckpoint(r io.Reader) (*SessionState, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("persist: read checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("persist: bad checkpoint magic %q", magic)
	}
	cr := &crcReader{r: br}
	cfgLen, err := readU32(cr)
	if err != nil {
		return nil, fmt.Errorf("persist: read checkpoint config: %w", err)
	}
	if cfgLen > maxConfigJSON {
		return nil, fmt.Errorf("persist: checkpoint config of %d bytes out of range", cfgLen)
	}
	cfgBytes := make([]byte, cfgLen)
	if _, err := io.ReadFull(cr, cfgBytes); err != nil {
		return nil, fmt.Errorf("persist: read checkpoint config: %w", err)
	}
	st := &SessionState{}
	if err := json.Unmarshal(cfgBytes, &st.Config); err != nil {
		return nil, fmt.Errorf("persist: decode checkpoint config: %w", err)
	}
	n64, err := readU64(cr)
	if err != nil {
		return nil, fmt.Errorf("persist: read checkpoint header: %w", err)
	}
	d32, err := readU32(cr)
	if err != nil {
		return nil, fmt.Errorf("persist: read checkpoint header: %w", err)
	}
	const maxDim = 1 << 10
	if n64 > maxCheckpointPoints || (n64 > 0 && (d32 == 0 || d32 > maxDim)) {
		return nil, fmt.Errorf("persist: checkpoint shape %d×%d out of range", n64, d32)
	}
	d := int(d32)
	st.DS = &pointset.Dataset{D: d}
	// gd is the grid-space dimensionality of the frame and grid sections:
	// the embedder's output dimension when the config names an embedding,
	// d otherwise.
	gd := d
	if st.Config.Embedding != "" {
		embLen, err := readU32(cr)
		if err != nil {
			return nil, fmt.Errorf("persist: read checkpoint embedder: %w", err)
		}
		if embLen > maxEmbedderBytes {
			return nil, fmt.Errorf("persist: checkpoint embedder of %d bytes out of range", embLen)
		}
		if embLen == 0 {
			if n64 > 0 {
				return nil, fmt.Errorf("persist: checkpoint with %d points under embedding %q lacks a fitted embedder", n64, st.Config.Embedding)
			}
		} else {
			blob := make([]byte, embLen)
			if _, err := io.ReadFull(cr, blob); err != nil {
				return nil, fmt.Errorf("persist: read checkpoint embedder: %w", err)
			}
			emb, err := embed.Unmarshal(blob)
			if err != nil {
				return nil, fmt.Errorf("persist: decode checkpoint embedder: %w", err)
			}
			if got := emb.Spec().String(); got != st.Config.Embedding {
				return nil, fmt.Errorf("persist: checkpoint embedder %q disagrees with config embedding %q", got, st.Config.Embedding)
			}
			if n64 > 0 && emb.InDim() != d {
				return nil, fmt.Errorf("persist: checkpoint embedder input dimension %d disagrees with %d-dimensional rows", emb.InDim(), d)
			}
			st.Embedder = emb
			gd = emb.OutDim()
		}
	}
	if n64 == 0 {
		return st, finishCheckpoint(cr, br)
	}
	// All size math in uint64 until the data is actually in memory (the
	// 32-bit int truncation guard); chunked reads grow the buffers with the
	// bytes really present.
	data, err := readFloats(cr, n64*uint64(d))
	if err != nil {
		return nil, fmt.Errorf("persist: read checkpoint rows: %w", err)
	}
	st.DS.Data = data
	st.DS.N = int(n64)
	n := st.DS.N
	scale, err := readU32(cr)
	if err != nil {
		return nil, fmt.Errorf("persist: read checkpoint frame: %w", err)
	}
	if scale < 2 || scale > 0xFFFF {
		return nil, fmt.Errorf("persist: checkpoint scale %d out of range", scale)
	}
	st.Scale = int(scale)
	if st.Mins, err = readFloats(cr, uint64(gd)); err != nil {
		return nil, fmt.Errorf("persist: read checkpoint frame: %w", err)
	}
	if st.Maxs, err = readFloats(cr, uint64(gd)); err != nil {
		return nil, fmt.Errorf("persist: read checkpoint frame: %w", err)
	}
	for j := 0; j < gd; j++ {
		if math.IsNaN(st.Mins[j]) || math.IsInf(st.Mins[j], 0) ||
			math.IsNaN(st.Maxs[j]) || math.IsInf(st.Maxs[j], 0) || st.Mins[j] > st.Maxs[j] {
			return nil, fmt.Errorf("persist: checkpoint frame [%v, %v] invalid in dimension %d", st.Mins[j], st.Maxs[j], j)
		}
	}
	if st.IDs, err = readInt32s(cr, n64); err != nil {
		return nil, fmt.Errorf("persist: read checkpoint ids: %w", err)
	}
	gridLen, err := readU64(cr)
	if err != nil {
		return nil, fmt.Errorf("persist: read checkpoint: %w", err)
	}
	lim := &io.LimitedReader{R: cr, N: int64(gridLen)}
	g, err := grid.ReadSnapshot(lim)
	if err != nil {
		return nil, fmt.Errorf("persist: read checkpoint grid: %w", err)
	}
	// ReadSnapshot consumed exactly the snapshot; any slack in the declared
	// length must still flow through the CRC before the trailer.
	if _, err := io.Copy(io.Discard, lim); err != nil {
		return nil, fmt.Errorf("persist: read checkpoint grid: %w", err)
	}
	st.Grid = g
	if err := finishCheckpoint(cr, br); err != nil {
		return nil, err
	}
	// Cross-section consistency: every id must index a grid cell, and the
	// grid's additive masses must total exactly the point count.
	m := int32(g.Len())
	for i, id := range st.IDs {
		if id < 0 || id >= m {
			return nil, fmt.Errorf("persist: checkpoint id %d of point %d outside the %d-cell grid", id, i, m)
		}
	}
	if mass := g.TotalMass(); mass != float64(n) {
		return nil, fmt.Errorf("persist: checkpoint grid mass %v disagrees with %d points", mass, n)
	}
	if g.Dim() != gd {
		return nil, fmt.Errorf("persist: checkpoint grid dimension %d disagrees with the %d-dimensional quantizer frame", g.Dim(), gd)
	}
	return st, nil
}

// finishCheckpoint reads the CRC trailer (from the raw reader, outside the
// CRC accounting) and verifies it against the consumed body.
func finishCheckpoint(cr *crcReader, br *bufio.Reader) error {
	want, err := readU32(br)
	if err != nil {
		return fmt.Errorf("persist: read checkpoint trailer: %w", err)
	}
	if cr.crc != want {
		return fmt.Errorf("persist: checkpoint CRC mismatch (got %08x, want %08x)", cr.crc, want)
	}
	return nil
}

// writeInt32s streams an int32 slice in little-endian.
func writeInt32s(w io.Writer, data []int32) error {
	var buf [8 << 10]byte
	for off := 0; off < len(data); {
		n := len(data) - off
		if n > len(buf)/4 {
			n = len(buf) / 4
		}
		for i := 0; i < n; i++ {
			le.PutUint32(buf[4*i:], uint32(data[off+i]))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// readFloats reads count float64s in bounded chunks, growing the result
// with the data actually present.
func readFloats(r io.Reader, count uint64) ([]float64, error) {
	const chunk = 1 << 13
	initial := uint64(chunk)
	if count < initial {
		initial = count
	}
	out := make([]float64, 0, initial)
	var buf [8 * chunk]byte
	for read := uint64(0); read < count; {
		n := chunk
		if rem := count - read; rem < chunk {
			n = int(rem)
		}
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out = append(out, math.Float64frombits(le.Uint64(buf[8*i:])))
		}
		read += uint64(n)
	}
	return out, nil
}

// readInt32s reads count int32s in bounded chunks.
func readInt32s(r io.Reader, count uint64) ([]int32, error) {
	const chunk = 1 << 14
	initial := uint64(chunk)
	if count < initial {
		initial = count
	}
	out := make([]int32, 0, initial)
	var buf [4 * chunk]byte
	for read := uint64(0); read < count; {
		n := chunk
		if rem := count - read; rem < chunk {
			n = int(rem)
		}
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out = append(out, int32(le.Uint32(buf[4*i:])))
		}
		read += uint64(n)
	}
	return out, nil
}
