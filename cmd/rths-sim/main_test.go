package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunSummaryAllPolicies(t *testing.T) {
	for _, policy := range []string{
		"rths", "matching", "paper-exact", "best-response",
		"random", "egreedy", "least-loaded", "static",
	} {
		err := run([]string{"-policy", policy, "-stages", "200", "-peers", "6", "-helpers", "3"}, io.Discard)
		if err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"-csv", "-stages", "50"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithDemand(t *testing.T) {
	if err := run([]string{"-demand", "400", "-stages", "100"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// A non-finite demand would silently switch server accounting off.
	for _, d := range []string{"NaN", "+Inf"} {
		if err := run([]string{"-demand", d, "-stages", "10"}, io.Discard); err == nil {
			t.Fatalf("-demand %s accepted", d)
		}
	}
}

func TestRunRejectsUnknownPolicy(t *testing.T) {
	if err := run([]string{"-policy", "psychic"}, io.Discard); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// Bad sizes fail with an error naming the flag instead of panicking, and
// the smallest valid runs print finite summaries (a one-stage run's tail
// is its only stage).
func TestRunSizes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"zero peers", []string{"-peers", "0"}, "-peers"},
		{"negative peers", []string{"-peers", "-3"}, "-peers"},
		{"negative helpers", []string{"-helpers", "-1"}, "-helpers"},
		{"zero helpers", []string{"-helpers", "0"}, "-helpers"},
		{"zero stages", []string{"-stages", "0"}, "-stages"},
		{"negative stages", []string{"-stages", "-5"}, "-stages"},
		{"one stage", []string{"-stages", "1", "-demand", "400"}, ""},
		{"two stages", []string{"-stages", "2"}, ""},
		{"one helper", []string{"-helpers", "1", "-stages", "20"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(out.String(), "NaN") || strings.Contains(out.String(), "Inf") {
				t.Fatalf("summary is not finite:\n%s", out.String())
			}
		})
	}
}
