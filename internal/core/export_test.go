package core

import "testing"

// Helpers the external test files (package core_test, which import the
// internal/oracle reference) share with the internal ones.

var (
	AssertResultsEqual = assertResultsEqual
	EngineCluster      = engineCluster
)

// assertResultsEqual requires two results to match field for field:
// identical labels, threshold, curve and per-stage cell counts.
func assertResultsEqual(t *testing.T, want, got *Result) {
	t.Helper()
	if want.NumClusters != got.NumClusters {
		t.Fatalf("NumClusters: want %d, got %d", want.NumClusters, got.NumClusters)
	}
	if want.Threshold != got.Threshold {
		t.Fatalf("Threshold: want %v, got %v", want.Threshold, got.Threshold)
	}
	if want.ThresholdIndex != got.ThresholdIndex {
		t.Fatalf("ThresholdIndex: want %d, got %d", want.ThresholdIndex, got.ThresholdIndex)
	}
	if want.CellsQuantized != got.CellsQuantized || want.CellsTransformed != got.CellsTransformed || want.CellsKept != got.CellsKept {
		t.Fatalf("cell counts: want %d/%d/%d, got %d/%d/%d",
			want.CellsQuantized, want.CellsTransformed, want.CellsKept,
			got.CellsQuantized, got.CellsTransformed, got.CellsKept)
	}
	if len(want.Curve) != len(got.Curve) {
		t.Fatalf("curve length: want %d, got %d", len(want.Curve), len(got.Curve))
	}
	for i := range want.Curve {
		if want.Curve[i] != got.Curve[i] {
			t.Fatalf("curve[%d]: want %v, got %v", i, want.Curve[i], got.Curve[i])
		}
	}
	if len(want.Labels) != len(got.Labels) {
		t.Fatalf("label count: want %d, got %d", len(want.Labels), len(got.Labels))
	}
	for i := range want.Labels {
		if want.Labels[i] != got.Labels[i] {
			t.Fatalf("label %d: want %d, got %d", i, want.Labels[i], got.Labels[i])
		}
	}
}
