package main

import (
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	// Tiny horizon: exercises the full path of each artifact quickly.
	for _, fig := range []string{"2", "3", "4", "5", "a4"} {
		if err := run([]string{"-fig", fig, "-stages", "300"}); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-nonsense"}, "flag provided but not defined"},
		{[]string{"-fig", "2", "-stages", "-5"}, "-stages must be at least 0"},
		{[]string{"-fig", "2", "-stages", "1"}, "-stages 1"},
		{[]string{"-fig", "a2", "-stages", "1"}, "-stages 1"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.wantErr)
		}
	}
}
