package pointset

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeMapped writes rows into a fresh mapped-Dataset file and returns its
// path.
func writeMapped(t *testing.T, rows [][]float64, d int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.awds")
	w, err := CreateMapped(path, d)
	if err != nil {
		t.Fatalf("CreateMapped: %v", err)
	}
	for _, r := range rows {
		if err := w.AppendRow(r); err != nil {
			t.Fatalf("AppendRow: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// TestMappedRoundTrip writes a random dataset and checks the mapped view is
// bit-identical to the in-RAM one, rows included.
func TestMappedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, d = 997, 3
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 1e3
		}
		rows[i] = row
	}
	path := writeMapped(t, rows, d)

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	if m.N() != n || m.Dim() != d {
		t.Fatalf("mapped shape %d×%d, want %d×%d", m.N(), m.Dim(), n, d)
	}
	ds := m.Dataset()
	want := MustFromSlices(rows)
	if ds.N != want.N || ds.D != want.D {
		t.Fatalf("dataset shape %d×%d, want %d×%d", ds.N, ds.D, want.N, want.D)
	}
	for i := 0; i < n; i++ {
		got, exp := ds.Row(i), want.Row(i)
		for j := range exp {
			if math.Float64bits(got[j]) != math.Float64bits(exp[j]) {
				t.Fatalf("row %d dim %d: got %v want %v", i, j, got[j], exp[j])
			}
		}
	}
	// Rows-view parity with the in-RAM Dataset.
	mr, wr := ds.Rows(), want.Rows()
	for i := range wr {
		for j := range wr[i] {
			if mr[i][j] != wr[i][j] {
				t.Fatalf("Rows()[%d][%d]: got %v want %v", i, j, mr[i][j], wr[i][j])
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}

// TestMappedEmpty round-trips a zero-point file.
func TestMappedEmpty(t *testing.T) {
	path := writeMapped(t, nil, 4)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	if m.N() != 0 || m.Dim() != 4 {
		t.Fatalf("shape %d×%d, want 0×4", m.N(), m.Dim())
	}
}

// TestMappedCorrupt covers every rejection path: truncated payload,
// appended garbage, bad magic, absurd header fields, and a writer that
// never reached Close. Each must fail with the typed ErrCorruptDataset.
func TestMappedCorrupt(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	mutate := func(name string, f func(t *testing.T, path string)) {
		t.Run(name, func(t *testing.T) {
			path := writeMapped(t, rows, 2)
			f(t, path)
			m, err := OpenMapped(path)
			if err == nil {
				m.Close()
				t.Fatalf("OpenMapped accepted a corrupt file")
			}
			if !errors.Is(err, ErrCorruptDataset) {
				t.Fatalf("error %v is not ErrCorruptDataset", err)
			}
		})
	}
	mutate("truncated-payload", func(t *testing.T, path string) {
		st, _ := os.Stat(path)
		if err := os.Truncate(path, st.Size()-5); err != nil {
			t.Fatal(err)
		}
	})
	mutate("truncated-into-header", func(t *testing.T, path string) {
		if err := os.Truncate(path, mappedHeaderSize-1); err != nil {
			t.Fatal(err)
		}
	})
	mutate("trailing-garbage", func(t *testing.T, path string) {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	})
	mutate("bad-magic", func(t *testing.T, path string) {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("NOTADATA"), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	})
	mutate("zero-dim", func(t *testing.T, path string) {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b [8]byte
		if _, err := f.WriteAt(b[:], 16); err != nil {
			t.Fatal(err)
		}
		f.Close()
	})
	mutate("overflowing-count", func(t *testing.T, path string) {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], 1<<62)
		if _, err := f.WriteAt(b[:], 8); err != nil {
			t.Fatal(err)
		}
		f.Close()
	})

	t.Run("unclosed-writer", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "torn.awds")
		w, err := CreateMapped(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := w.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		// Simulate a crash: flush the buffer so data is on disk, but never
		// Close — the header keeps its invalid placeholder count.
		if err := w.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		w.f.Close()
		w.f = nil
		m, err := OpenMapped(path)
		if err == nil {
			m.Close()
			t.Fatalf("OpenMapped accepted an unfinalized file")
		}
		if !errors.Is(err, ErrCorruptDataset) {
			t.Fatalf("error %v is not ErrCorruptDataset", err)
		}
	})
}

// TestMappedRowMismatch checks AppendRow rejects ragged rows.
func TestMappedRowMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.awds")
	w, err := CreateMapped(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendRow([]float64{1, 2}); err == nil {
		t.Fatal("AppendRow accepted a short row")
	}
}

// FuzzOpenMapped feeds arbitrary bytes to OpenMapped as a mapped-Dataset
// file. It must never panic; a rejected file must fail with an
// ErrCorruptDataset-tagged error, and an accepted one must expose exactly
// the N·D coordinates its header declares, with D recorded bounds when it
// is a version 02 file and none when it is a version 01 one. The seed
// corpus in testdata/fuzz/FuzzOpenMapped holds valid, empty, truncated,
// torn and overflowing version 01 headers, and version 02 files: valid,
// with a short trailer, and with NaN, narrow and wide bounds. The in-code
// seed is whatever CreateMapped writes today.
func FuzzOpenMapped(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.awds")
	w, err := CreateMapped(path, 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range [][]float64{{1, 2, 3}, {-4, 0.5, math.MaxFloat64}} {
		if err := w.AppendRow(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.awds")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptDataset) {
				t.Fatalf("rejection not typed as ErrCorruptDataset: %v", err)
			}
			return
		}
		defer m.Close()
		ds := m.Dataset()
		if ds.N*ds.D != len(ds.Data) || ds.N != m.N() || ds.D != m.Dim() {
			t.Fatalf("accepted %d×%d dataset over %d coordinates", ds.N, ds.D, len(ds.Data))
		}
		if len(ds.Data) > 0 {
			// Touch both ends: a view longer than the file's payload
			// would fault here.
			_ = ds.Data[0] + ds.Data[len(ds.Data)-1]
		}
		mins, maxs, ok := ds.Bounds()
		if ok != (string(data[:8]) == mappedMagic) || len(mins) != len(maxs) || (ok && len(mins) != ds.D) {
			t.Fatalf("%q file of dimension %d records %d, %d bounds (%v)", data[:8], ds.D, len(mins), len(maxs), ok)
		}
		if _, _, ok := ds.Clone().Bounds(); ok {
			t.Fatal("a clone of the view records bounds")
		}
	})
}
