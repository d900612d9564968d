package main

import (
	"strings"
	"testing"
)

func TestRunDefaultScale(t *testing.T) {
	if err := run([]string{"-stages", "800", "-warmup", "200"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsWarmupBeyondStages(t *testing.T) {
	if err := run([]string{"-stages", "100", "-warmup", "100"}); err == nil {
		t.Fatal("warmup >= stages accepted")
	}
}

// Each size flag is checked before anything is built: a bad value fails
// with an error naming the flag instead of a panic deep in the engine or
// the CE check. 256 helpers is the largest action set the check keys.
func TestRunRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-peers", "0"}, "-peers must be at least 1, got 0"},
		{[]string{"-helpers", "0"}, "-helpers must be in 1..256, got 0"},
		{[]string{"-helpers", "-1"}, "-helpers must be in 1..256, got -1"},
		{[]string{"-helpers", "257"}, "-helpers must be in 1..256, got 257"},
		{[]string{"-warmup", "-1"}, "-warmup must be at least 0, got -1"},
		{[]string{"-helpers", "256"}, ""},
	} {
		// A short run; the row's own flags come last and win.
		err := run(append([]string{"-stages", "50", "-warmup", "10"}, tc.args...))
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%v: %v", tc.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.wantErr)
		}
	}
}
